package ir

import "fmt"

// ReorderedCopy returns a new graph with the same tensor table and the same
// instructions re-emitted in the given schedule order, so that the copy's
// program order is the schedule. Instruction IDs are reassigned; the
// original graph is untouched. The copy shares g's tensors and operand
// slices (DESIGN.md §2); its instructions are copies, so a caller may edit
// their scalar fields (FasterMoE shrinks all-to-all payloads) without
// touching g.
func ReorderedCopy(g *Graph, order []int) (*Graph, error) {
	if err := g.ValidateSchedule(order); err != nil {
		return nil, fmt.Errorf("ir: reorder: %w", err)
	}
	ng := Derive(g, 0, len(order))
	slab := make([]Instr, len(order))
	for i, id := range order {
		slab[i] = *g.Instrs[id]
		ng.Emit(&slab[i])
	}
	return ng, nil
}
