package ir

import "fmt"

// ReorderedCopy returns a new graph with the same tensor table and the same
// instructions re-emitted in the given schedule order, so that the copy's
// program order is the schedule and an instruction's ID is its new
// position. The copy shares g's tensors and instructions (DESIGN.md §2)
// and writes to neither; a caller that edits an instruction replaces it
// with a copy of its own (FasterMoE shrinks all-to-all payloads that way).
func ReorderedCopy(g *Graph, order []int) (*Graph, error) {
	if err := g.ValidateSchedule(order); err != nil {
		return nil, fmt.Errorf("ir: reorder: %w", err)
	}
	ng := Derive(g, 0, len(order), nil)
	for _, id := range order {
		ng.Emit(g.Instrs[id])
	}
	return ng, nil
}
