package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"psmkit/internal/experiment"
	"psmkit/internal/hdl"
	"psmkit/internal/trace"
)

// seedStride spreads workload seeds apart in every derived tracegen seed.
const seedStride = 104729

// ipSet is one IP's long-TS training set: experiment.Pieces traces of
// the paper's Table II length, each a tracegen CSV pair.
type ipSet struct {
	c      experiment.IPCase
	inputs []string // primary inputs in port order (psmgen -inputs)
	seeds  []int64
	ns     []int
	funcs  []string
	powers []string
	model  string // psmgen -out
	json   string // psmgen -json
}

// offlineSets derives the four IPs' trace sets from the workload seed,
// mirroring experiment.GenerateTraces' split and per-piece seeding.
func (b *bench) offlineSets() []ipSet {
	var sets []ipSet
	for _, c := range experiment.Cases() {
		s := ipSet{c: c, inputs: inputNames(c)}
		per := c.LongTS / experiment.Pieces
		for p := 0; p < experiment.Pieces; p++ {
			n := per
			if p == experiment.Pieces-1 {
				n = c.LongTS - per*(experiment.Pieces-1)
			}
			prefix := filepath.Join(b.dir, fmt.Sprintf("%s-%d", c.Name, p))
			s.seeds = append(s.seeds, c.Seed+99991+b.seed*seedStride+int64(p)*7919)
			s.ns = append(s.ns, n)
			s.funcs = append(s.funcs, prefix+".func.csv")
			s.powers = append(s.powers, prefix+".power.csv")
		}
		s.model = filepath.Join(b.dir, c.Name+".psm")
		s.json = filepath.Join(b.dir, c.Name+".json")
		sets = append(sets, s)
	}
	return sets
}

// inputNames lists a core's primary inputs in port order — the order
// trace.InputColumns uses, so psmgen's calibration columns match the
// reference flow's.
func inputNames(c experiment.IPCase) []string {
	var names []string
	for _, p := range c.New().Ports() {
		if p.Dir == hdl.In {
			names = append(names, p.Name)
		}
	}
	return names
}

// offline is the Table II long-TS workload: tracegen writes 16 CSV
// traces (setup, the paper's PX column), then one psmgen per IP builds
// its model serially (gen_s), each followed by psmlint loading and
// verifying the model file (the offline model read). Every psmgen JSON is checked
// against the sequential experiment.BuildModel over the same traces.
func (b *bench) offline() error {
	sets := b.offlineSets()
	// Each setup round is 16 tracegen processes; two rounds keep the run
	// inside its time budget.
	reps := 2
	if b.trace {
		reps = 1
	}
	var setups []float64
	for r := 0; r < reps; r++ {
		d, err := b.generateCSV(sets)
		if err != nil {
			return err
		}
		setups = append(setups, seconds(d))
		fmt.Fprintf(b.out, "setup %d: tracegen 16 CSV traces %.3f s\n", r+1, seconds(d))
	}
	b.e2e["setup_s"] = median(setups)

	// Measured loop: one psmgen per IP, serially, repeated while the run
	// lasts. Outputs are kept and checked after the loop so the reference
	// build stays out of the timed region.
	instants := 0
	for _, s := range sets {
		for _, n := range s.ns {
			instants += n
		}
	}
	var gens, firsts, repeats []float64
	var peak float64
	outputs := make([][][]byte, len(sets))
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < b.seconds; pass++ {
		total, first, repeat := 0.0, 0.0, 0.0
		for i, s := range sets {
			res, err := b.runProc("psmgen",
				"-func", strings.Join(s.funcs, ","), "-power", strings.Join(s.powers, ","),
				"-inputs", strings.Join(s.inputs, ","), "-out", s.model, "-json", s.json)
			if !b.op("psmgen "+s.c.Name, err) {
				return fmt.Errorf("psmgen %s failed", s.c.Name)
			}
			out, err := os.ReadFile(s.json)
			if !b.op("read model json", err) {
				return err
			}
			outputs[i] = append(outputs[i], out)
			total += seconds(res.wall)
			peak = max(peak, res.maxRSS)
			f, r, err := b.readModel(s.model)
			if err != nil {
				return err
			}
			first += f
			repeat += r
			fmt.Fprintf(b.out, "pass %d psmgen %-9s %8.3f s %8.1f MiB; psmlint read %.4f s, again %.4f s\n",
				pass+1, s.c.Name, seconds(res.wall), res.maxRSS, f, r)
		}
		gens = append(gens, total)
		firsts = append(firsts, first)
		repeats = append(repeats, repeat)
	}
	b.e2e["gen_s"] = median(gens)
	b.e2e["ingest_rec_per_s"] = float64(instants) / median(gens)
	b.e2e["peak_rss_mb"] = peak
	b.e2e["first_model_s"] = median(firsts)
	b.e2e["repeat_model_s"] = median(repeats)
	fmt.Fprintf(b.out, "gen_s over %d instants, median of %d passes\n", instants, len(gens))

	// References: two IPs at a time (the flow is sequential; AES and
	// Camellia peak near 0.8 GiB each).
	refs := make([][]byte, len(sets))
	var jobs []func() error
	for i, s := range sets {
		jobs = append(jobs, func() error {
			var err error
			refs[i], err = b.csvRef("offline", s)
			return err
		})
	}
	for i, err := range parallel(2, jobs) {
		if !b.op("reference "+sets[i].c.Name, err) {
			return err
		}
		for pass, out := range outputs[i] {
			b.checkBytes(fmt.Sprintf("psmgen %s pass %d", sets[i].c.Name, pass+1), out, refs[i])
		}
	}
	if b.trace {
		return b.tracedOffline(sets, refs, b.e2e["gen_s"])
	}
	return nil
}

// modelReads is how many times one psmlint process reads a model file.
// A single read takes milliseconds, and a few-millisecond timing on a
// shared machine wanders by tens of percent between runs; fifty reads
// make each sample last a fair fraction of a second.
const modelReads = 50

// readModel is the offline model read, the batch counterpart of psmd's
// verified GET /v1/model: psmlint loads and verifies the file psmgen just
// wrote. It runs two psmlint processes and returns each one's wall time
// per read. Offline there is no cache to warm, so the second is the
// same operation sampled again; reading each model right after its
// psmgen spreads the samples over the whole pass.
func (b *bench) readModel(path string) (first, again float64, err error) {
	args := []string{"model"}
	for i := 0; i < modelReads; i++ {
		args = append(args, path)
	}
	var t [2]float64
	for i := range t {
		res, err := b.runProc("psmlint", args...)
		if !b.op("psmlint model", err) {
			return 0, 0, err
		}
		t[i] = seconds(res.wall) / modelReads
	}
	return t[0], t[1], nil
}

// generateCSV runs tracegen for every trace of every set, at most nproc
// at a time, and returns the wall time.
func (b *bench) generateCSV(sets []ipSet) (time.Duration, error) {
	var jobs []func() error
	for _, s := range sets {
		for p := range s.seeds {
			prefix := strings.TrimSuffix(s.funcs[p], ".func.csv")
			args := []string{"-ip", s.c.Name, "-n", strconv.Itoa(s.ns[p]), "-seed", strconv.FormatInt(s.seeds[p], 10), "-out", prefix}
			jobs = append(jobs, func() error {
				_, err := b.runProc("tracegen", args...)
				return err
			})
		}
	}
	start := time.Now()
	errs := parallel(runtime.NumCPU(), jobs)
	d := time.Since(start)
	for _, err := range errs {
		if !b.op("tracegen", err) {
			return d, err
		}
	}
	return d, nil
}

// csvRef is the reference model JSON for one IP's CSV traces: the
// sequential experiment.BuildModel over the same files, cached per trace
// set and seed.
func (b *bench) csvRef(set string, s ipSet) ([]byte, error) {
	path := filepath.Join(b.cache, fmt.Sprintf("%s-%s-s%d-%s.json", set, cacheTag(), b.seed, s.c.Name))
	if data, err := os.ReadFile(path); err == nil {
		return data, nil
	}
	ts := &experiment.TraceSet{Case: s.c}
	for p := range s.funcs {
		ft, pw, err := readCSVPair(s.funcs[p], s.powers[p])
		if err != nil {
			return nil, err
		}
		ts.FTs = append(ts.FTs, ft)
		ts.PWs = append(ts.PWs, pw)
	}
	ts.InputCols = trace.InputColumns(ts.FTs[0], s.c.New())
	flow, err := experiment.BuildModel(ts, experiment.DefaultPolicies())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := flow.Model.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), writeFileAtomic(path, buf.Bytes())
}

func readCSVPair(funcPath, powerPath string) (*trace.Functional, *trace.Power, error) {
	ff, err := os.Open(funcPath)
	if err != nil {
		return nil, nil, err
	}
	defer ff.Close()
	ft, err := trace.ReadFunctionalCSV(ff)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", funcPath, err)
	}
	pf, err := os.Open(powerPath)
	if err != nil {
		return nil, nil, err
	}
	defer pf.Close()
	pw, err := trace.ReadPowerCSV(pf)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", powerPath, err)
	}
	return ft, pw, nil
}
