package acs

import "sort"

// Subset returns the agreed origins in ascending order, or nil before
// decision.
func (m *Machine) Subset() []int {
	if !m.done {
		return nil
	}
	var s []int
	for j := 0; j < m.n; j++ {
		if m.decision[j] == 1 {
			s = append(s, j)
		}
	}
	sort.Ints(s)
	return s
}
