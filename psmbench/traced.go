package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"psmkit/internal/check"
	"psmkit/internal/experiment"
	"psmkit/internal/hdl"
	"psmkit/internal/hmm"
	"psmkit/internal/logic"
	"psmkit/internal/mining"
	"psmkit/internal/obs"
	"psmkit/internal/pipeline"
	"psmkit/internal/power"
	"psmkit/internal/powersim"
	"psmkit/internal/psm"
	"psmkit/internal/shard"
	"psmkit/internal/stream"
	"psmkit/internal/testbench"
	"psmkit/internal/trace"
)

// The traced pass runs every layer in-process on the workload's own
// inputs, under a benchmark-owned obs.Tracer and obs.Registry:
//
//   - the offline flow, exactly as psmgen calls it (power simulation,
//     CSV read, chains, join, calibrate, check, write, self-check);
//   - stream.Engine fed the four AES sessions (scan, parse, reduce,
//     close, snapshots, verify, render);
//   - a two-shard shard.Coordinator fed the same sessions.
//
// Sessions are ingested one after another in the serve rounds'
// completion order, so the fold orders — and the reference models — are
// the ones the HTTP rounds produce. Every model the pass builds is
// checked against the reference for its order.

const (
	engineRepeats = 5 // repeated engine snapshots after the first
	shardRepeats  = 2 // repeated cross-shard snapshots after the first
	ingestBatch   = 256
	maxLineBytes  = 1 << 20
)

// simJob is one trace the traced pass simulates in-process.
type simJob struct {
	c    experiment.IPCase
	seed int64
	n    int
	csv  string // prefix to write the CSV pair to; "" = already on disk
	keep bool   // return the trace (payload encoding)
}

// layerRun accumulates the traced pass's measurements.
type layerRun struct {
	ctx context.Context
	tr  *obs.Tracer
	reg *obs.Registry // offline flow counters

	engineReg    *obs.Registry // engine counters and snapshot merges
	shardSnapReg *obs.Registry // merges billed by cross-shard snapshots

	cycles         int   // simulated instants
	readBytes      int64 // CSV bytes read
	statesOut      int   // simplified chain states (= pooled states)
	modelBytes     int   // .psm bytes written
	selfInstants   int   // instants replayed by the self-check
	verify, render []float64
	modelJSONBytes int // last rendered model
}

func newLayerRun() *layerRun {
	tr := obs.NewTracer(nil)
	reg := obs.NewRegistry()
	return &layerRun{
		ctx:          obs.WithRegistry(obs.WithTracer(context.Background(), tr), reg),
		tr:           tr,
		reg:          reg,
		engineReg:    obs.NewRegistry(),
		shardSnapReg: obs.NewRegistry(),
	}
}

// simulate runs the jobs at most nproc at a time, each under a
// power.simulate span, writing CSV pairs where asked.
func (lr *layerRun) simulate(jobs []simJob) ([]*trace.Functional, []*trace.Power, error) {
	fts := make([]*trace.Functional, len(jobs))
	pws := make([]*trace.Power, len(jobs))
	var work []func() error
	for i, j := range jobs {
		work = append(work, func() error {
			_, span := obs.Start(lr.ctx, "power.simulate")
			ft, pw, err := simulateIP(j.c, j.n, j.seed)
			span.End()
			if err != nil {
				return err
			}
			if j.csv != "" {
				if err := writeCSVPair(j.csv, ft, pw); err != nil {
					return err
				}
			}
			if j.keep {
				fts[i], pws[i] = ft, pw
			}
			return nil
		})
		lr.cycles += j.n
	}
	return fts, pws, errors.Join(parallel(runtime.NumCPU(), work)...)
}

// simulateIP is tracegen's capture: the IP under its stimulus program
// with the trace recorder and the power estimator attached.
func simulateIP(c experiment.IPCase, n int, seed int64) (*trace.Functional, *trace.Power, error) {
	core := c.New()
	sim := hdl.NewSimulator(core)
	est := power.NewEstimator(core, power.DefaultConfig())
	ft, rec := trace.Capture(core)
	sim.Observe(rec)
	sim.Observe(est.Observer())
	gen, err := testbench.For(core, testbench.Options{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	if err := testbench.Drive(sim, gen, n); err != nil {
		return nil, nil, err
	}
	return ft, &trace.Power{Values: est.Trace()}, nil
}

func writeCSVPair(prefix string, ft *trace.Functional, pw *trace.Power) error {
	for _, w := range []struct {
		path  string
		write func(io.Writer) error
	}{{prefix + ".func.csv", ft.WriteCSV}, {prefix + ".power.csv", pw.WriteCSV}} {
		f, err := os.Create(w.path)
		if err != nil {
			return err
		}
		if err := w.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// build is psmgen's flow, call for call, with a benchmark span around
// each layer call; the spans the program emits nest under them. It
// returns the model JSON and the wall time from read to self-check.
func (lr *layerRun) build(funcs, powers, inputs []string) ([]byte, time.Duration, error) {
	start := time.Now()
	ctx := lr.ctx
	jobs := runtime.GOMAXPROCS(0)
	fts := make([]*trace.Functional, len(funcs))
	pws := make([]*trace.Power, len(funcs))
	_, span := obs.Start(ctx, "trace.read")
	err := pipeline.ForEach(ctx, jobs, len(funcs), func(_ context.Context, i int) error {
		var err error
		fts[i], pws[i], err = readCSVPair(funcs[i], powers[i])
		return err
	})
	span.End()
	if err != nil {
		return nil, 0, err
	}
	for i := range funcs {
		for _, p := range []string{funcs[i], powers[i]} {
			if fi, err := os.Stat(p); err == nil {
				lr.readBytes += fi.Size()
			}
		}
	}

	cfg := pipeline.Config{Workers: jobs, Mining: mining.DefaultConfig(), Merge: psm.DefaultMergePolicy(), Calibration: psm.DefaultCalibrationPolicy()}
	cctx, span := obs.Start(ctx, "pipeline.chains")
	chains, err := pipeline.BuildChains(cctx, fts, pws, cfg)
	span.End()
	if err != nil {
		return nil, 0, err
	}
	for _, c := range chains {
		lr.statesOut += len(c.States)
	}
	jctx, span := obs.Start(ctx, "pipeline.join")
	model, err := pipeline.TreeJoin(jctx, chains, cfg.Merge, jobs)
	span.End()
	if err != nil {
		return nil, 0, err
	}

	var inputCols []int
	for _, name := range inputs {
		col := fts[0].Column(name)
		if col < 0 {
			return nil, 0, fmt.Errorf("input signal %q not in trace schema", name)
		}
		inputCols = append(inputCols, col)
	}
	kctx, span := obs.Start(ctx, "psm.calibrate")
	psm.CalibrateCtx(kctx, model, fts, pws, inputCols, cfg.Calibration)
	span.End()

	_, span = obs.Start(ctx, "check.verify")
	rep := &check.Report{}
	for _, c := range chains {
		rep.Merge(check.CheckChain(c))
	}
	opts := check.DefaultOptions()
	opts.MinR = cfg.Calibration.MinR
	doc := check.FromPSM(model, "pipeline")
	doc.AttachHMM(hmm.New(model))
	rep.Merge(check.Run(doc, opts))
	span.End()
	if rep.HasErrors() {
		return nil, 0, fmt.Errorf("generated model failed verification (%d errors)", rep.Count(check.Error))
	}

	_, span = obs.Start(ctx, "psm.write")
	var bin, js bytes.Buffer
	err = psm.Save(&bin, model)
	if err == nil {
		err = model.WriteJSON(&js)
	}
	span.End()
	if err != nil {
		return nil, 0, err
	}
	lr.modelBytes += bin.Len()

	_, span = obs.Start(ctx, "powersim.run")
	for i, ft := range fts {
		res := powersim.Run(model, ft, inputCols, pws[i], powersim.DefaultConfig())
		lr.selfInstants += res.Instants
	}
	span.End()
	return js.Bytes(), time.Since(start), nil
}

// engineStats is the stream.Engine part's own accounting.
type engineStats struct {
	scan, parse, reduce, close time.Duration
	first                      time.Duration // first snapshot
	repeats                    []float64     // repeated snapshots, s
	toModel                    time.Duration // ingest start to first rendered model
	rebuilds, deltas           int
}

// engine ingests the sessions one after another exactly as psmd's
// single-engine handler does, then snapshots, verifies and renders.
func (lr *layerRun) engine(ps []payload, inputs []string) (engineStats, []ack, []byte, error) {
	var st engineStats
	cfg := stream.DefaultConfig()
	cfg.Inputs = inputs
	cfg.Workers = runtime.GOMAXPROCS(0)
	cfg.Registry = lr.engineReg
	eng := stream.NewEngine(cfg)
	ctx := obs.WithRegistry(lr.ctx, lr.engineReg)
	acks := make([]ack, len(ps))
	start := time.Now()
	for _, i := range completion {
		p := ps[i]
		_, span := obs.Start(ctx, "stream.ingest")
		idx, err := ingestEngine(eng, p.data, &st)
		span.End()
		if err != nil {
			return st, nil, nil, fmt.Errorf("%s: %w", p.id, err)
		}
		acks[i] = ack{Trace: idx}
	}
	var first []byte
	for r := 0; r <= engineRepeats; r++ {
		t := time.Now()
		m, err := eng.Snapshot(ctx)
		d := time.Since(t)
		if err != nil {
			return st, nil, nil, err
		}
		body, err := lr.verifyRender(m)
		if err != nil {
			return st, nil, nil, err
		}
		if r == 0 {
			st.first, st.toModel, first = d, time.Since(start), body
			continue
		}
		st.repeats = append(st.repeats, seconds(d))
		if err := compareBytes(body, first); err != nil {
			return st, nil, nil, fmt.Errorf("repeated engine snapshot: %w", err)
		}
	}
	em := eng.Metrics()
	st.rebuilds, st.deltas = em.Rebuilds, em.DeltaSnapshots
	return st, acks, first, nil
}

// ingestEngine is psmd's single-engine upload loop: zero-copy scan,
// arena parse into two alternating arenas, batched AppendBatch, Close.
func ingestEngine(eng *stream.Engine, data []byte, st *engineStats) (int, error) {
	sc := stream.NewScanner(bytes.NewReader(data), maxLineBytes)
	h, err := sc.ScanHeader()
	if err != nil {
		return 0, err
	}
	sigs, err := h.Schema()
	if err != nil {
		return 0, err
	}
	sess, err := eng.Open(sigs)
	if err != nil {
		return 0, err
	}
	var (
		arenas [2]logic.Arena
		epoch  int
		raw    stream.RawRecord
		rows   = make([][]logic.Vector, 0, ingestBatch)
		powers = make([]float64, 0, ingestBatch)
		rowMem = make([]logic.Vector, ingestBatch*len(sigs))
	)
	flush := func() error {
		if len(rows) == 0 {
			return nil
		}
		t := time.Now()
		err := sess.AppendBatch(rows, powers)
		st.reduce += time.Since(t)
		rows, powers = rows[:0], powers[:0]
		epoch++
		return err
	}
	for {
		t0 := time.Now()
		err := sc.ScanRecord(&raw)
		t1 := time.Now()
		st.scan += t1.Sub(t0)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			sess.Abort()
			return 0, err
		}
		if raw.P == nil {
			sess.Abort()
			return 0, errors.New("training record without power")
		}
		a := &arenas[epoch&1]
		if len(rows) == 0 {
			a.Reset()
		}
		k := len(rows) * len(sigs)
		row, err := stream.DecodeRowArena(sigs, &raw, a, rowMem[k:k:k+len(sigs)])
		st.parse += time.Since(t1)
		if err != nil {
			sess.Abort()
			return 0, err
		}
		rows = append(rows, row)
		powers = append(powers, *raw.P)
		if len(rows) == ingestBatch {
			if err := flush(); err != nil {
				sess.Abort()
				return 0, err
			}
		}
	}
	if err := flush(); err != nil {
		sess.Abort()
		return 0, err
	}
	t := time.Now()
	idx, err := sess.Close()
	st.close += time.Since(t)
	return idx, err
}

// shardStats is the shard.Coordinator part's own accounting.
type shardStats struct {
	open, appendWait, closeWait time.Duration
	records                     []int64 // per shard
	shed                        int64
	first                       time.Duration
	repeats                     []float64
	toModel                     time.Duration
}

// shards ingests the sessions one after another through a two-shard
// coordinator exactly as psmd's sharded handler frames them (natural
// session ids, AppendLines batches), then snapshots, verifies and
// renders.
func (lr *layerRun) shards(ps []payload, inputs []string) (shardStats, []ack, []byte, error) {
	var st shardStats
	cfg := stream.DefaultConfig()
	cfg.Inputs = inputs
	cfg.Workers = runtime.GOMAXPROCS(0)
	co := shard.New(shard.Config{Shards: 2, Stream: cfg})
	defer co.Close()
	ctx := lr.ctx
	acks := make([]ack, len(ps))
	start := time.Now()
	for _, i := range completion {
		p := ps[i]
		_, span := obs.Start(ctx, "shard.ingest")
		a, err := ingestShard(ctx, co, p, &st)
		span.End()
		if err != nil {
			return st, nil, nil, fmt.Errorf("%s: %w", p.id, err)
		}
		acks[i] = a
	}
	for _, m := range co.ShardMetrics() {
		st.records = append(st.records, m.RecordsIngested)
	}
	st.shed = co.Shed()
	sctx := obs.WithRegistry(ctx, lr.shardSnapReg)
	var first []byte
	for r := 0; r <= shardRepeats; r++ {
		t := time.Now()
		m, err := co.Snapshot(sctx)
		d := time.Since(t)
		if err != nil {
			return st, nil, nil, err
		}
		body, err := lr.verifyRender(m)
		if err != nil {
			return st, nil, nil, err
		}
		if r == 0 {
			st.first, st.toModel, first = d, time.Since(start), body
			continue
		}
		st.repeats = append(st.repeats, seconds(d))
		if err := compareBytes(body, first); err != nil {
			return st, nil, nil, fmt.Errorf("repeated cross-shard snapshot: %w", err)
		}
	}
	return st, acks, first, nil
}

// ingestShard is psmd's sharded upload loop: frame raw lines into
// batches and hand them to the session's shard.
func ingestShard(ctx context.Context, co *shard.Coordinator, p payload, st *shardStats) (ack, error) {
	sc := stream.NewScanner(bytes.NewReader(p.data), maxLineBytes)
	h, err := sc.ScanHeader()
	if err != nil {
		return ack{}, err
	}
	sigs, err := h.Schema()
	if err != nil {
		return ack{}, err
	}
	t := time.Now()
	sess, err := co.Open(ctx, p.id, sigs)
	st.open += time.Since(t)
	if err != nil {
		return ack{}, err
	}
	var (
		buf       []byte
		records   int
		firstLine int
	)
	flush := func() error {
		if records == 0 {
			return nil
		}
		t := time.Now()
		err := sess.AppendLines(buf, records, firstLine)
		st.appendWait += time.Since(t)
		buf, records = nil, 0
		return err
	}
	for {
		line, err := sc.Line()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			sess.Abort()
			return ack{}, err
		}
		if records == 0 {
			firstLine = sc.Lines()
			buf = make([]byte, 0, ingestBatch*(len(line)+16))
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
		records++
		if records == ingestBatch {
			if err := flush(); err != nil {
				sess.Abort()
				return ack{}, err
			}
		}
	}
	if err := flush(); err != nil {
		sess.Abort()
		return ack{}, err
	}
	t = time.Now()
	local, n, err := sess.Close(ctx)
	st.closeWait += time.Since(t)
	sh := sess.Shard()
	return ack{Trace: local, Records: n, Shard: &sh}, err
}

// verifyRender is psmd's GET /v1/model after the snapshot: the psmlint
// rule set gates the model, then it renders as JSON.
func (lr *layerRun) verifyRender(m *psm.Model) ([]byte, error) {
	t := time.Now()
	rep := check.VerifyPSM(m, "live", check.DefaultOptions())
	lr.verify = append(lr.verify, seconds(time.Since(t)))
	if rep.HasErrors() {
		return nil, fmt.Errorf("live model failed verification (%d errors)", rep.Count(check.Error))
	}
	var buf bytes.Buffer
	t = time.Now()
	err := m.WriteJSON(&buf)
	lr.render = append(lr.render, seconds(time.Since(t)))
	lr.modelJSONBytes = buf.Len()
	return buf.Bytes(), err
}

// encodePayload renders a trace as the NDJSON session tracegen -stream
// emits for it.
func encodePayload(ft *trace.Functional, pw *trace.Power, inputCols []int) ([]byte, error) {
	var buf bytes.Buffer
	enc := stream.NewEncoder(&buf)
	if err := enc.WriteHeader(stream.HeaderFor(ft.Signals, inputCols)); err != nil {
		return nil, err
	}
	for t := 0; t < ft.Len(); t++ {
		if err := enc.WriteRow(ft.Row(t), pw.Values[t]); err != nil {
			return nil, err
		}
	}
	err := enc.Flush()
	return buf.Bytes(), err
}
