package powersim_test

import (
	"testing"

	"psmkit/internal/experiment"
	"psmkit/internal/hmm"
	"psmkit/internal/powersim"
	"psmkit/internal/testbench"
)

// The tracker resolves every alternative's HMM observation once, in New;
// the index must be exactly what a key lookup returns, for every state
// and alternative of the four IPs' models.
func TestObservationIndexMatchesKeyLookup(t *testing.T) {
	for _, c := range experiment.Cases() {
		t.Run(c.Name, func(t *testing.T) {
			ts, err := experiment.GenerateTraces(c, 4000, experiment.Pieces, testbench.Options{Seed: c.Seed})
			if err != nil {
				t.Fatal(err)
			}
			flow, err := experiment.BuildModel(ts, experiment.DefaultPolicies())
			if err != nil {
				t.Fatal(err)
			}
			m := flow.Model
			h := hmm.New(m)
			idx := powersim.New(m, ts.InputCols, powersim.DefaultConfig()).ObservationIndex()
			if len(idx) != len(m.States) {
				t.Fatalf("index covers %d states, model has %d", len(idx), len(m.States))
			}
			for j, s := range m.States {
				if len(idx[j]) != len(s.Alts) {
					t.Fatalf("state %d: index has %d alternatives, state has %d", j, len(idx[j]), len(s.Alts))
				}
				for a, alt := range s.Alts {
					if want := h.Observation(alt.Seq.Key()); idx[j][a] != want || want < 0 {
						t.Fatalf("state %d alt %d: index %d, key lookup %d", j, a, idx[j][a], want)
					}
				}
			}
		})
	}
}
