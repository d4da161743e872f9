package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// procResult is one finished child process.
type procResult struct {
	wall   time.Duration
	maxRSS float64 // peak resident set, MiB (rusage)
}

// command prepares one binary of the build; the child is killed if the
// harness dies first.
func (b *bench) command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(b.bin, name), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// runProc runs one binary of the build to completion, discarding its
// standard output. A non-zero exit is an error carrying the tail of its
// standard error.
func (b *bench) runProc(name string, args ...string) (procResult, error) {
	cmd := b.command(name, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	res := procResult{wall: time.Since(start)}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			res.maxRSS = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		return res, fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, tail(stderr.String(), 400))
	}
	return res, nil
}

// runProcTo runs a binary with its standard output streamed to a file.
func (b *bench) runProcTo(path, name string, args ...string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	cmd := b.command(name, args...)
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = f, &stderr
	err = cmd.Run()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, tail(stderr.String(), 400))
	}
	return nil
}

// parallel runs jobs on at most workers goroutines and returns the
// errors in job order (nil entries for successes).
func parallel(workers int, jobs []func() error) []error {
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = jobs[i]()
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return errs
}

func tail(s string, n int) string {
	s = strings.TrimSpace(s)
	if len(s) > n {
		return "…" + s[len(s)-n:]
	}
	return s
}

// writeFileAtomic writes data so a concurrent or interrupted run never
// sees a partial cache entry.
func writeFileAtomic(path string, data []byte) error {
	tmp := fmt.Sprintf("%s.tmp%d", path, os.Getpid())
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// sourceID names the code under test: the git commit when the checkout
// is a repository, and always a digest of the Go sources and module
// files, so results from a plain source tree are still attributable.
func sourceID() string {
	h := sha256.New()
	var paths []string
	// Unreadable entries only drop out of the digest; the walk itself
	// cannot fail otherwise.
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (p == ".git" || p == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || filepath.Base(p) == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(data))
		h.Write(data)
	}
	id := fmt.Sprintf("src-%x", h.Sum(nil)[:6])
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			id = strings.TrimSpace(string(out)) + "/" + id
		}
	}
	return id
}

var cacheTagOnce = sync.OnceValue(func() string {
	exe, err := os.Executable()
	if err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			return fmt.Sprintf("%x", sha256.Sum256(data))[:16]
		}
	}
	// Unhashable: a per-process tag disables reuse across runs.
	return fmt.Sprintf("pid%d", os.Getpid())
})

// cacheTag keys the reference cache by the harness binary, which links
// the reference flow: rebuilding psmkit with different code never reuses
// a reference computed by the old code.
func cacheTag() string { return cacheTagOnce() }
