package psm

import (
	"context"

	"psmkit/internal/obs"
)

// JoinPooledReferenceCtx is JoinPooledCtx with the unmemoized
// restart-scan fixpoint in place of the worklist engine — the join's
// historical engine, retained as the oracle of the engine-equivalence
// tests (incremental_test.go) and the baseline of the join scaling gate
// and sweep (join_scaling_test.go, scripts/bench_join), the same role
// power.ReferenceEstimator plays for the columnar power kernel. No
// production path calls it; the produced model is identical to
// JoinPooledCtx's.
func JoinPooledReferenceCtx(ctx context.Context, m *Model, policy MergePolicy) *Model {
	_, span := obs.Start(ctx, "collapse", obs.KV("states_in", len(m.States)))
	mg := newMerger(ctx, policy, phaseJoin, -1)
	mg.memo = nil
	alias := map[int]int{}
	foldPooled(&mg, m, alias)
	joinFixpointScan(&mg, m, alias)
	resolveTransitions(m, alias)
	reindex(m)
	span.SetAttr("states_out", len(m.States))
	span.End()
	return m
}

// joinFixpointScan is the reference fixpoint engine: pooling moved the
// kept states' means, so pairs that were not mergeable against the early
// evidence may be now; rescan all pairs from the top after every
// collapse until none merges. Each collapse therefore costs a fresh
// O(n²) pair scan — the superlinear core collapseWorklist replaces while
// reproducing the same collapse sequence.
func joinFixpointScan(mg *merger, m *Model, alias map[int]int) {
	for {
		found := false
		for i := 0; i < len(m.States) && !found; i++ {
			for j := i + 1; j < len(m.States) && !found; j++ {
				if mg.mergeable(m.States[i], m.States[j]) {
					collapse(m, alias, i, j)
					found = true
				}
			}
		}
		if !found {
			break
		}
	}
}

// collapse merges state index bi into state index ai (see mergeStates)
// and deletes bi from the state slice.
func collapse(m *Model, alias map[int]int, ai, bi int) {
	mergeStates(alias, m.Initials, m.States[ai], m.States[bi])
	m.States = append(m.States[:bi], m.States[bi+1:]...)
}
