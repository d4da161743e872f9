package shard

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"psmkit/internal/mining"
	"psmkit/internal/obs"
	"psmkit/internal/psm"
	"psmkit/internal/stream"
)

// holdAll parks every shard worker at a barrier: a hold task is queued
// behind whatever each shard already has, and once a worker reaches it
// the shard's queue prefix is fully applied and the worker touches its
// engine no further until released. The returned release is idempotent
// and must always be called. Holding all shards gives the snapshot a
// consistent per-shard cut — each shard's statistics, chains and
// calibration series describe exactly the same completed-session
// prefix. (Cross-shard skew is harmless: any union of per-shard
// prefixes is a valid session set, and the model is pinned to equal a
// single engine over precisely that set.)
func (c *Coordinator) holdAll(ctx context.Context) (release func(), err error) {
	helds := make([]chan struct{}, len(c.shards))
	releases := make([]chan struct{}, len(c.shards))
	var once sync.Once
	release = func() {
		once.Do(func() {
			for _, r := range releases {
				if r != nil {
					close(r)
				}
			}
		})
	}
	for i, sh := range c.shards {
		helds[i] = make(chan struct{})
		releases[i] = make(chan struct{})
		if err := sh.enqueueBlocking(task{kind: taskHold, held: helds[i], release: releases[i]}); err != nil {
			releases[i] = nil // never queued: nothing will wait on it
			release()
			return nil, err
		}
	}
	for i := range helds {
		select {
		case <-helds[i]:
		case <-ctx.Done():
			release()
			return nil, ctx.Err()
		case <-c.stopc:
			release()
			return nil, errClosed
		}
	}
	return release, nil
}

// globalCut is the fleet-wide mining evidence read under a hold.
type globalCut struct {
	stats  []mining.AtomStats
	rows   int
	traces int
}

// miningCut sums the shards' mining statistics. AtomStats fields are
// exact integer counts, so the sum equals a single engine's statistics
// over the union of the shards' sessions — the global kept-set decision
// is exactly the one engine's. Caller holds the shards.
func (c *Coordinator) miningCut(candidates []mining.Atom) globalCut {
	cut := globalCut{stats: make([]mining.AtomStats, len(candidates))}
	for _, sh := range c.shards {
		st, rows, traces := sh.eng.MiningStats()
		if len(st) > 0 {
			mining.MergeStats(cut.stats, st)
		}
		cut.rows += rows
		cut.traces += traces
	}
	return cut
}

// Snapshot materializes the fleet's current model: byte-identical to a
// single stream.Engine (and so to pipeline.BuildModel) over the same
// sessions in canonical order — shard-major, each shard's sessions in
// its completion order — for any shard count and any interleaving.
//
// The cut is taken under a fleet-wide hold (statistics, chains and
// calibration series of one consistent per-shard prefix); the hold is
// released before the join, which runs on immutable exports. The join
// is incremental, like a single engine's: only the sessions completed
// since the previous snapshot are remapped into the global dictionary
// and folded into the coordinator's LiveJoin, with their canonical
// trace indices. It rebuilds — global dictionary, proposition tables,
// folded counts and fold reset together — only when the globally
// selected kept atom set moved, or when the new shard-major sequence
// does not extend the folded one (a shard below the last shard with
// folded sessions gained a session).
func (c *Coordinator) Snapshot(ctx context.Context) (*psm.Model, error) {
	ctx, span, end := c.live.Start(ctx, obs.KV("shards", len(c.shards)))
	defer end()
	c.snapMu.Lock()
	defer c.snapMu.Unlock()

	c.mu.Lock()
	schema, candidates := c.schema, c.candidates
	c.mu.Unlock()
	if len(candidates) == 0 {
		return nil, fmt.Errorf("shard: %w", stream.ErrNoTraces)
	}

	release, err := c.holdAll(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	cut := c.miningCut(candidates)
	if cut.traces == 0 {
		return nil, fmt.Errorf("shard: %w", stream.ErrNoTraces)
	}
	idx := mining.SelectIndices(candidates, cut.stats, cut.rows, c.cfg.Stream.Mining)
	if len(idx) == 0 {
		return nil, fmt.Errorf("shard: no atomic proposition survived filtering (%d candidates over %d instants)",
			len(candidates), cut.rows)
	}

	exps := make([]stream.ShardExport, len(c.shards))
	for i, sh := range c.shards {
		if exps[i], err = sh.eng.ExportChains(ctx, idx); err != nil {
			return nil, err
		}
	}
	// The exports are immutable copies/shared-immutable storage: the
	// remap and join below run with the fleet already ingesting again.
	release()

	rebuild := !slices.Equal(idx, c.keptIdx)
	last := -1 // the last shard with folded sessions
	for i, n := range c.folded {
		if n > 0 {
			last = i
		}
	}
	for i := 0; i < last; i++ {
		rebuild = rebuild || exps[i].Traces > c.folded[i]
	}
	if rebuild {
		c.keptIdx = append([]int(nil), idx...)
		c.gdict = mining.NewDictionary(schema, candidates, idx)
		c.props = make([][]int, len(c.shards))
		c.folded = make([]int, len(c.shards))
		c.live.Reset()
	}

	// Canonical intern and fold order: shards in index order, each
	// shard's new local proposition ids and new sessions in order. A
	// shard dictionary's id order is the first-appearance order over that
	// shard's sessions, so the global intern sequence is exactly the
	// single engine's over the canonical session order — ids match byte
	// for byte — and extending it shard-major extends it in place.
	var chains []*psm.Chain
	var hds, pws [][]float64
	for i, exp := range exps {
		for _, key := range exp.PropKeys[len(c.props[i]):] {
			c.props[i] = append(c.props[i], c.gdict.Intern(key))
		}
		base := len(hds)
		for j := c.folded[i]; j < exp.Traces; j++ {
			chains = append(chains, remapChain(exp.Chains[j], c.gdict, c.props[i], base+j))
		}
		c.folded[i] = exp.Traces
		hds = append(hds, exp.HD...)
		pws = append(pws, exp.PW...)
	}
	return c.live.Serve(ctx, span, chains, c.gdict, hds, pws), nil
}

// Provenance re-derives every mergeability decision of the fleet's
// current model, exactly as a single engine over the canonical session
// order would (see Engine.Provenance): fresh global dictionary, chain
// replays shard by shard in index order with canonical trace indices,
// one sequential pooled collapse. The hold lasts through the replay —
// the kept set and the replayed sessions must be one cut.
func (c *Coordinator) Provenance(ctx context.Context) ([]obs.MergeDecision, error) {
	ctx, span := obs.Start(ctx, "provenance", obs.KV("shards", len(c.shards)))
	defer span.End()
	c.snapMu.Lock()
	defer c.snapMu.Unlock()

	c.mu.Lock()
	schema, candidates := c.schema, c.candidates
	c.mu.Unlock()
	if len(candidates) == 0 {
		return nil, fmt.Errorf("shard: %w", stream.ErrNoTraces)
	}

	release, err := c.holdAll(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	cut := c.miningCut(candidates)
	if cut.traces == 0 {
		return nil, fmt.Errorf("shard: %w", stream.ErrNoTraces)
	}
	idx := mining.SelectIndices(candidates, cut.stats, cut.rows, c.cfg.Stream.Mining)
	if len(idx) == 0 {
		return nil, fmt.Errorf("shard: no atomic proposition survived filtering (%d candidates over %d instants)",
			len(candidates), cut.rows)
	}
	dict := mining.NewDictionary(schema, candidates, idx)

	log := obs.NewProvenanceLog()
	ctx = obs.WithProvenance(ctx, log)
	var chains []*psm.Chain
	base := 0
	for _, sh := range c.shards {
		cs, err := sh.eng.ProvenanceChains(ctx, idx, dict, base)
		if err != nil {
			return nil, err
		}
		chains = append(chains, cs...)
		base += len(cs)
	}
	psm.JoinPooledCtx(ctx, psm.Pool(chains), c.cfg.Stream.Merge)
	span.SetAttr("decisions", log.Len())
	return log.Decisions(), nil
}

// remapChain deep-copies one shard-local chain into the global
// coordinate system: proposition ids through the shard's local→global
// table (props[local id] = global id) and every trace reference to the
// chain's canonical global index. The remap is a bijective relabeling —
// distinct shard-local ids carry distinct signatures, so distinct
// global ids — and every merge decision downstream reads propositions
// only through sequence equality, so the relabeled chain joins exactly
// as the single engine's identically-labeled chain does. The source
// chain (the shard's epoch cache) is never touched.
func remapChain(c *psm.Chain, dict *mining.Dictionary, props []int, traceIdx int) *psm.Chain {
	out := &psm.Chain{Dict: dict, Trace: traceIdx, States: make([]*psm.State, len(c.States))}
	for i, s := range c.States {
		ns := &psm.State{
			ID:        s.ID,
			Alts:      make([]psm.Alt, len(s.Alts)),
			Power:     s.Power,
			Intervals: make([]psm.Interval, len(s.Intervals)),
		}
		for j, a := range s.Alts {
			phases := make([]psm.Phase, len(a.Seq.Phases))
			for k, p := range a.Seq.Phases {
				phases[k] = psm.Phase{Prop: props[p.Prop], Kind: p.Kind}
			}
			ns.Alts[j] = psm.Alt{Seq: psm.Sequence{Phases: phases}, Count: a.Count}
		}
		for j, iv := range s.Intervals {
			ns.Intervals[j] = psm.Interval{Trace: traceIdx, Start: iv.Start, Stop: iv.Stop}
		}
		out.States[i] = ns
	}
	return out
}

// ShardMetric is one shard's row of the fleet metrics: the shard
// engine's ingest counters plus the queue the coordinator runs in front
// of it.
type ShardMetric struct {
	Shard           int   `json:"shard"`
	RecordsIngested int64 `json:"records_ingested"`
	OpenSessions    int   `json:"open_sessions"`
	TracesCompleted int   `json:"traces_completed"`
	Rebuilds        int   `json:"rebuilds"`
	QueueDepth      int   `json:"queue_depth"`
	QueueCap        int   `json:"queue_cap"`
	Shed            int64 `json:"shed_total"`
}

// ShardMetrics returns the per-shard rows in shard order.
func (c *Coordinator) ShardMetrics() []ShardMetric {
	rows := make([]ShardMetric, len(c.shards))
	for i, sh := range c.shards {
		em := sh.eng.Metrics()
		rows[i] = ShardMetric{
			Shard:           i,
			RecordsIngested: em.RecordsIngested,
			OpenSessions:    em.OpenSessions,
			TracesCompleted: em.TracesCompleted,
			Rebuilds:        em.Rebuilds,
			QueueDepth:      len(sh.q),
			QueueCap:        cap(sh.q),
			Shed:            sh.mShed.Value(),
		}
	}
	return rows
}

// Metrics aggregates the fleet into one stream.Metrics: ingest counters
// sum across shards; the snapshot accounting (snapshots, rebuilds,
// states pooled/served, join latency) is the coordinator's LiveJoin —
// the cross-shard join is the only join that runs under a coordinator.
func (c *Coordinator) Metrics() stream.Metrics {
	m := c.live.Metrics()
	for _, sh := range c.shards {
		em := sh.eng.Metrics()
		m.RecordsIngested += em.RecordsIngested
		m.OpenSessions += em.OpenSessions
		m.TracesCompleted += em.TracesCompleted
	}
	return m
}

// Shed returns the total number of shed append batches across shards.
func (c *Coordinator) Shed() int64 { return c.mShed.Value() }
