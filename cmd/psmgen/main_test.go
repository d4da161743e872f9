package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"psmkit/internal/experiment"
	"psmkit/internal/mining"
	"psmkit/internal/psm"
	"psmkit/internal/testbench"
	"psmkit/internal/trace"
)

// writeTraces produces a small RAM training pair in dir and returns the
// file paths.
func writeTraces(t *testing.T, dir string) (string, string) {
	t.Helper()
	return writeTraceSet(t, dir, 1)
}

// writeTraceSet produces pieces RAM training pairs in dir and returns the
// comma-separated functional and power file lists.
func writeTraceSet(t *testing.T, dir string, pieces int) (string, string) {
	t.Helper()
	c, err := experiment.CaseByName("RAM")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := experiment.GenerateTraces(c, 2000*pieces, pieces, testbench.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var funcs, powers []string
	for i := range ts.FTs {
		fp := filepath.Join(dir, fmt.Sprintf("t%d.func.csv", i))
		pp := filepath.Join(dir, fmt.Sprintf("t%d.power.csv", i))
		writeFile(t, fp, ts.FTs[i].WriteCSV)
		writeFile(t, pp, ts.PWs[i].WriteCSV)
		funcs, powers = append(funcs, fp), append(powers, pp)
	}
	return strings.Join(funcs, ","), strings.Join(powers, ",")
}

func writeFile(t *testing.T, path string, write func(io.Writer) error) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	fp, pp := writeTraces(t, dir)
	out := filepath.Join(dir, "m.psm")
	dot := filepath.Join(dir, "m.dot")
	jsonOut := filepath.Join(dir, "m.json")

	err := run(fp, pp, "addr,en,we,wdata", out, dot, jsonOut,
		mining.DefaultConfig(), psm.DefaultMergePolicy(), psm.DefaultCalibrationPolicy(), true, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{out, dot, jsonOut} {
		st, err := os.Stat(p)
		if err != nil || st.Size() == 0 {
			t.Errorf("output %s missing or empty", p)
		}
	}
	// The model file loads back.
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := psm.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() == 0 {
		t.Error("loaded model has no states")
	}
}

func TestRunInputValidation(t *testing.T) {
	dir := t.TempDir()
	fp, pp := writeTraces(t, dir)
	out := filepath.Join(dir, "m.psm")
	pol := psm.DefaultMergePolicy()
	cal := psm.DefaultCalibrationPolicy()

	if err := run("", "", "", out, "", "", mining.DefaultConfig(), pol, cal, true, 1, nil); err == nil {
		t.Error("empty file lists accepted")
	}
	if err := run(fp, "", "", out, "", "", mining.DefaultConfig(), pol, cal, true, 1, nil); err == nil {
		t.Error("mismatched file lists accepted")
	}
	if err := run(fp, pp, "nosuchsignal", out, "", "", mining.DefaultConfig(), pol, cal, true, 1, nil); err == nil {
		t.Error("unknown input signal accepted")
	}
	if err := run("missing.csv", pp, "", out, "", "", mining.DefaultConfig(), pol, cal, true, 1, nil); err == nil {
		t.Error("missing functional trace accepted")
	}
}

func TestRunShortPowerTraceRejected(t *testing.T) {
	dir := t.TempDir()
	fp, _ := writeTraces(t, dir)
	short := filepath.Join(dir, "short.power.csv")
	pw := &trace.Power{Values: []float64{1, 2, 3}}
	f, err := os.Create(short)
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	err = run(fp, short, "", filepath.Join(dir, "m.psm"), "", "",
		mining.DefaultConfig(), psm.DefaultMergePolicy(), psm.DefaultCalibrationPolicy(), true, 1, nil)
	if err == nil {
		t.Error("short power trace accepted")
	}
}

func TestSplit(t *testing.T) {
	if got := split(""); got != nil {
		t.Errorf("split empty = %v", got)
	}
	got := split(" a.csv , b.csv ,, c.csv ")
	want := []string{"a.csv", "b.csv", "c.csv"}
	if len(got) != len(want) {
		t.Fatalf("split = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("split[%d] = %q", i, got[i])
		}
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	runErr := fn()
	os.Stdout = saved
	w.Close()
	out := <-done
	r.Close()
	return string(out), runErr
}

// The self-check fans out over -j like the rest of the pipeline; the
// printed training MRE and every written artifact must not depend on it.
func TestOutputIdenticalAcrossJobs(t *testing.T) {
	dir := t.TempDir()
	fp, pp := writeTraceSet(t, dir, 4)
	type result struct {
		summary string
		files   map[string][]byte
	}
	runAt := func(jobs int) result {
		sub := filepath.Join(dir, fmt.Sprintf("j%d", jobs))
		if err := os.Mkdir(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		paths := map[string]string{
			"psm":  filepath.Join(sub, "m.psm"),
			"dot":  filepath.Join(sub, "m.dot"),
			"json": filepath.Join(sub, "m.json"),
		}
		stdout, err := captureStdout(t, func() error {
			return run(fp, pp, "addr,en,we,wdata", paths["psm"], paths["dot"], paths["json"],
				mining.DefaultConfig(), psm.DefaultMergePolicy(), psm.DefaultCalibrationPolicy(), true, jobs, nil)
		})
		if err != nil {
			t.Fatalf("-j %d: %v", jobs, err)
		}
		res := result{files: map[string][]byte{}}
		for _, line := range strings.Split(stdout, "\n") {
			if strings.HasPrefix(line, "model: ") {
				res.summary = line
			}
		}
		if !strings.Contains(res.summary, "training MRE") {
			t.Fatalf("-j %d: no training MRE line in %q", jobs, stdout)
		}
		for kind, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			res.files[kind] = b
		}
		return res
	}
	seq, par := runAt(1), runAt(4)
	if seq.summary != par.summary {
		t.Errorf("summary differs:\n-j 1: %s\n-j 4: %s", seq.summary, par.summary)
	}
	for kind, b := range seq.files {
		if string(b) != string(par.files[kind]) {
			t.Errorf("%s output differs between -j 1 and -j 4", kind)
		}
	}
}
