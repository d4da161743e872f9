package powersim

// ObservationIndex exposes the tracker's precomputed per-alternative HMM
// observation indices to the external tests.
func (s *Simulator) ObservationIndex() [][]int { return s.obs }
