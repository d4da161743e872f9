package psm

import (
	"math/rand"
	"testing"
)

// The join compares alternatives with Sequence.Equal instead of their
// Key strings; that is only sound if Key is injective, i.e. if Equal and
// key equality always agree — across multi-digit and -1 propositions and
// across lengths.
func TestSequenceEqualMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	props := []int{-1, 0, 1, 2, 10, 11, 12, 21, 101, 110, 1011}
	randSeq := func() Sequence {
		n := rng.Intn(4) // empty sequences included
		s := Sequence{}
		for i := 0; i < n; i++ {
			s.Phases = append(s.Phases, Phase{Prop: props[rng.Intn(len(props))], Kind: PatternKind(rng.Intn(2))})
		}
		return s
	}
	equalPairs := 0
	for i := 0; i < 20000; i++ {
		a := randSeq()
		b := randSeq()
		if rng.Intn(4) == 0 {
			b = Sequence{Phases: append([]Phase(nil), a.Phases...)}
		}
		eq := a.Equal(b)
		if eq != (a.Key() == b.Key()) {
			t.Fatalf("Equal(%v, %v) = %v, keys %q and %q", a.Phases, b.Phases, eq, a.Key(), b.Key())
		}
		if eq != b.Equal(a) {
			t.Fatalf("Equal not symmetric on %v, %v", a.Phases, b.Phases)
		}
		if eq {
			equalPairs++
		}
	}
	if equalPairs == 0 {
		t.Fatal("no equal pairs drawn")
	}
}
