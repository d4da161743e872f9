package mining

import (
	"fmt"

	"psmkit/internal/logic"
	"psmkit/internal/trace"
)

// This file is the incremental face of the miner, used by internal/stream:
// instead of scanning a complete trace set, an Observer consumes one
// valuation row at a time, reducing it to a packed candidate-atom truth
// bitset and folding the row into the exact integer statistics the batch
// filter (SelectIndices) decides on. The bitset is lossless with respect
// to every downstream mining decision — any future kept-atom subset's
// signature is a projection of it (ProjectSignature) — so the engine can
// discard the raw logic vectors immediately after observing a record.

// SigWords returns the number of 64-bit words a packed truth bitset over
// n atoms occupies.
func SigWords(n int) int { return (n + 63) / 64 }

// Observer incrementally evaluates a fixed candidate-atom set over the
// rows of one trace. It is single-goroutine by design (one per streaming
// session); partial statistics from several observers merge exactly via
// MergeStats because every field of AtomStats is an exact count.
type Observer struct {
	atoms []Atom
	stats []AtomStats
	prev  []bool
	rows  int
}

// NewObserver returns an observer over the given candidate atoms
// (typically CandidateAtoms of the session's schema).
func NewObserver(atoms []Atom) *Observer {
	return &Observer{
		atoms: atoms,
		stats: make([]AtomStats, len(atoms)),
		prev:  make([]bool, len(atoms)),
	}
}

// NumAtoms returns the candidate count (the bitset width).
func (o *Observer) NumAtoms() int { return len(o.atoms) }

// Rows returns the number of rows observed so far.
func (o *Observer) Rows() int { return o.rows }

// Observe folds one valuation row into the statistics and writes the
// packed candidate truth bits into dst (which must hold
// SigWords(NumAtoms()) words; a short or nil dst is reallocated). The
// returned slice aliases dst when it was large enough.
func (o *Observer) Observe(row []logic.Vector, dst []uint64) []uint64 {
	words := SigWords(len(o.atoms))
	if cap(dst) < words {
		dst = make([]uint64, words)
	}
	dst = dst[:words]
	for i := range dst {
		dst[i] = 0
	}
	first := o.rows == 0
	for i, a := range o.atoms {
		v := a.Eval(row)
		st := &o.stats[i]
		if v {
			dst[i/64] |= 1 << uint(i%64)
			st.Held++
			st.EverTrue = true
		} else {
			st.EverFalse = true
		}
		if !first && v != o.prev[i] {
			st.Changes++
		}
		o.prev[i] = v
	}
	o.rows++
	return dst
}

// ObserveBatch folds a batch of rows into the statistics at once,
// writing row r's packed truth bits at dst[r*SigWords(NumAtoms()):].
// It is exactly equivalent to calling Observe row by row — every
// AtomStats field is an exact count, so increment order is immaterial —
// but iterates atoms on the outer loop, loading each atom's metadata,
// statistics slot and previous-value bit once per batch instead of once
// per row. This is the batched reduction behind Session.AppendBatch.
func (o *Observer) ObserveBatch(rows [][]logic.Vector, dst []uint64) []uint64 {
	words := SigWords(len(o.atoms))
	need := words * len(rows)
	if cap(dst) < need {
		dst = make([]uint64, need)
	}
	dst = dst[:need]
	for i := range dst {
		dst[i] = 0
	}
	if len(rows) == 0 {
		return dst
	}
	first := o.rows == 0
	for i, a := range o.atoms {
		st := &o.stats[i]
		prev := o.prev[i]
		word, bit := i/64, uint64(1)<<uint(i%64)
		for r, row := range rows {
			v := a.Eval(row)
			if v {
				dst[r*words+word] |= bit
				st.Held++
				st.EverTrue = true
			} else {
				st.EverFalse = true
			}
			if !(first && r == 0) && v != prev {
				st.Changes++
			}
			prev = v
		}
		o.prev[i] = prev
	}
	o.rows += len(rows)
	return dst
}

// Stats returns the per-atom statistics accumulated so far. The returned
// slice is the observer's own storage; callers that outlive the observer
// should MergeStats it into their accumulator instead of retaining it.
func (o *Observer) Stats() []AtomStats { return o.stats }

// MergeStats folds the per-atom partials of src into dst (same candidate
// order). It panics on a length mismatch — that is always a schema bug.
func MergeStats(dst, src []AtomStats) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mining: merging %d atom stats into %d", len(src), len(dst)))
	}
	for i := range src {
		dst[i].Merge(src[i])
	}
}

// ProjectSignature extracts the kept-atom signature of one row from its
// packed candidate truth bits: bit k of the result is candidate bit
// keptIdx[k]. Projecting the stored bitsets with the SelectIndices of the
// full trace set reproduces exactly the signatures Mine computes over the
// kept dictionary.
func ProjectSignature(bits []uint64, keptIdx []int) uint64 {
	var sig uint64
	for k, ci := range keptIdx {
		if bits[ci/64]&(1<<uint(ci%64)) != 0 {
			sig |= 1 << uint(k)
		}
	}
	return sig
}

// NewDictionary returns an empty dictionary over the candidates that
// keptIdx selects (SelectIndices' result), ready for sequential Intern
// replay in trace order. It is how the streaming engine rebuilds (or
// extends) the vocabulary the batch miner would have produced.
func NewDictionary(signals []trace.Signal, candidates []Atom, keptIdx []int) *Dictionary {
	d := &Dictionary{
		Signals: append([]trace.Signal(nil), signals...),
		Atoms:   make([]Atom, len(keptIdx)),
		index:   map[uint64]int{},
	}
	for i, ci := range keptIdx {
		d.Atoms[i] = candidates[ci]
	}
	return d
}

// Intern returns the proposition id of a kept-atom signature, assigning
// the next id on first sight. Like the unexported intern it wraps, it is
// single-writer: only one goroutine may call it, and once the dictionary
// is published for EvalRow readers it must not be called again. The
// streaming engine honors this by interning only under its snapshot lock,
// in session-completion order — which is exactly the sequential replay
// order MineParallel uses, so ids match the batch flow.
func (d *Dictionary) Intern(sig uint64) int { return d.intern(sig) }
