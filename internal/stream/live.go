package stream

import (
	"context"
	"errors"
	"time"

	"psmkit/internal/mining"
	"psmkit/internal/obs"
	"psmkit/internal/psm"
)

// ErrNoTraces reports a snapshot or provenance request before any
// session completed; Engine and shard.Coordinator wrap it.
var ErrNoTraces = errors.New("no completed traces")

// ErrSessionLimit reports an Open rejected by Config.MaxOpenSessions.
var ErrSessionLimit = errors.New("sessions already open")

// LiveJoin is the live model's one incremental join, shared by Engine
// and shard.Coordinator. It owns the psm.Joiner each new chain is folded
// into exactly once, the calibration over the canonical HD/power series,
// the frozen served dictionary, and the snapshot accounting (the psmd_
// snapshot, rebuild, delta, join-latency and pooled/served-state
// instruments). Its callers differ only in which chains are new and in
// their order: the engine folds its sessions in completion order, the
// coordinator the shards' sessions in shard-major order.
//
// A LiveJoin is not goroutine-safe; its owner serializes snapshots. The
// instruments are atomic, so Metrics and JoinLatencyWindow may run
// concurrently with a snapshot.
type LiveJoin struct {
	cal     psm.CalibrationPolicy
	skipCal bool
	reg     *obs.Registry
	joiner  *psm.Joiner
	folded  int  // chains folded since the last Reset
	reset   bool // Reset ran since the last served snapshot

	mSnapshots *obs.Counter
	mRebuilds  *obs.Counter
	mDelta     *obs.Counter
	mJoinNanos *obs.Counter
	gPooled    *obs.Gauge
	gServed    *obs.Gauge
	hJoin      *obs.Histogram
	hJoinWin   *obs.WindowedHistogram
}

// NewLiveJoin returns an empty live join for cfg's merge and calibration
// policies and memo bound, registering its instruments in reg.
func NewLiveJoin(cfg Config, reg *obs.Registry) *LiveJoin {
	joiner := psm.NewJoiner(cfg.Merge)
	joiner.SetMemoLimit(cfg.JoinMemoEntries)
	return &LiveJoin{
		cal:        cfg.Calibration,
		skipCal:    cfg.SkipCalibration,
		reg:        reg,
		joiner:     joiner,
		mSnapshots: reg.Counter("psmd_snapshots_total"),
		mRebuilds:  reg.Counter("psmd_rebuilds_total"),
		mDelta:     reg.Counter("psmd_snapshots_delta_total"),
		mJoinNanos: reg.Counter("psmd_join_nanos_total"),
		gPooled:    reg.Gauge("psmd_states_pooled"),
		gServed:    reg.Gauge("psmd_states_served"),
		hJoin:      reg.Histogram("psmd_join_latency_ms", LatencyBuckets),
		hJoinWin:   reg.Window("psmd_join_latency_ms_window", LatencyBuckets, obs.DefaultWindowInterval, obs.DefaultWindowSlots),
	}
}

// Start opens one snapshot under a "snapshot" span, billing the join's
// merge counters to the live registry unless ctx brings its own. The
// returned end closes the span and records the latency; defer it before
// taking any lock. Latency is recorded on every outcome: the time a
// failed or cancelled snapshot burned is what an operator alerting on
// join latency needs to see (a cancel storm that only shows up as absent
// samples would hide its cause).
func (l *LiveJoin) Start(ctx context.Context, attrs ...obs.Attr) (context.Context, *obs.Span, func()) {
	//psmlint:ignore nondet-source join-latency metric only; never reaches the model
	start := time.Now()
	if obs.RegistryFrom(ctx) == nil {
		ctx = obs.WithRegistry(ctx, l.reg)
	}
	ctx, span := obs.Start(ctx, "snapshot", attrs...)
	return ctx, span, func() {
		span.End()
		//psmlint:ignore nondet-source join-latency metric only; never reaches the model
		el := time.Since(start)
		l.mJoinNanos.Add(el.Nanoseconds())
		ms := float64(el.Nanoseconds()) / 1e6
		l.hJoin.Observe(ms)
		l.hJoinWin.Observe(ms)
	}
}

// Reset discards the fold with its verdict memo (psm.Joiner.Reset) and
// counts a rebuild: every chain the caller holds is folded again.
func (l *LiveJoin) Reset() {
	l.joiner.Reset()
	l.folded = 0
	l.reset = true
	l.mRebuilds.Inc()
}

// Folded returns the number of chains folded since the last Reset.
func (l *LiveJoin) Folded() int { return l.folded }

// Serve folds the new chains in order and serves the model over every
// chain folded so far — byte-identical to pipeline.BuildModel over them
// — calibrated over hds/pws (indexed by trace) and carrying a frozen copy
// of dict, so readers never race later interning. Folding is a left fold
// (see psm.Joiner), so only the order-dependent fixpoint reruns over the
// kept states. The snapshot is a delta unless Reset ran since the last.
func (l *LiveJoin) Serve(ctx context.Context, span *obs.Span, chains []*psm.Chain, dict *mining.Dictionary, hds, pws [][]float64) *psm.Model {
	if l.reset {
		span.SetAttr("rebuild", true)
	}
	for _, c := range chains {
		l.joiner.Add(ctx, c)
	}
	l.folded += len(chains)
	snap := l.joiner.Snapshot(ctx)
	if !l.skipCal {
		_, calSpan := obs.Start(ctx, "calibrate")
		fits := psm.CalibrateSeries(snap, hds, pws, l.cal)
		calSpan.SetAttr("fits", fits)
		calSpan.End()
	}
	snap.Dict = mining.FromSnapshot(dict.Snapshot())

	l.mSnapshots.Inc()
	if !l.reset {
		l.mDelta.Inc()
	}
	l.reset = false
	l.gPooled.Set(float64(l.joiner.Pooled()))
	l.gServed.Set(float64(len(snap.States)))
	span.SetAttr("states", len(snap.States))
	return snap
}

// Metrics returns the snapshot accounting; the caller adds the ingest
// counters.
func (l *LiveJoin) Metrics() Metrics {
	hs := l.hJoin.Snapshot()
	m := Metrics{
		Snapshots:      int(l.mSnapshots.Value()),
		Rebuilds:       int(l.mRebuilds.Value()),
		DeltaSnapshots: int(l.mDelta.Value()),
		StatesPooled:   int(l.gPooled.Value()),
		StatesServed:   int(l.gServed.Value()),
		JoinNanos:      l.mJoinNanos.Value(),
		JoinLatency:    make([]int, len(hs.Counts)),
	}
	m.StatesMerged = m.StatesPooled - m.StatesServed
	for i, n := range hs.Counts {
		m.JoinLatency[i] = int(n)
	}
	return m
}

// JoinLatencyWindow returns the join-latency distribution over the most
// recent sliding window (the /v1/status quantiles' feed).
func (l *LiveJoin) JoinLatencyWindow() obs.HistogramSnapshot { return l.hJoinWin.Snapshot() }
