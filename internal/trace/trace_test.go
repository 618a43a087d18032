package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"lancet/internal/cost"
	"lancet/internal/hw"
	"lancet/internal/ir"
	"lancet/internal/sim"
)

func TestExport(t *testing.T) {
	g := ir.NewGraph()
	x := g.NewTensor("x", ir.Shape{4}, ir.F16, ir.Activation)
	y := g.NewTensor("y", ir.Shape{4}, ir.F16, ir.Activation)
	z := g.NewTensor("z", ir.Shape{4}, ir.F16, ir.Activation)
	g.Emit(&ir.Instr{Name: "mm", Op: ir.OpMatMul, FLOPs: 1e9, Ins: []int{x.ID}, Outs: []int{y.ID}})
	g.Emit(&ir.Instr{Name: "a2a", Op: ir.OpAllToAll, Bytes: 1 << 20, CommDevices: 16,
		Ins: []int{y.ID}, Outs: []int{z.ID}, PartIdx: 1, NumParts: 4})
	cm := cost.NewModel(hw.V100Cluster(2))
	tl, err := (&sim.Executor{Cost: cm}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Export(g, tl)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TID   int     `json:"tid"`
			Dur   float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var spans, metas int
	var sawPartLabel, commOnTid1 bool
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "X":
			spans++
			if strings.Contains(e.Name, "[2/4]") {
				sawPartLabel = true
				if e.TID == 1 {
					commOnTid1 = true
				}
			}
		case "M":
			metas++
		}
	}
	if spans != 2 || metas != 3 {
		t.Errorf("got %d spans and %d metadata events, want 2 and 3", spans, metas)
	}
	if !sawPartLabel {
		t.Error("partitioned instance should be labelled [2/4]")
	}
	if !commOnTid1 {
		t.Error("communication must land on the comm-stream tid")
	}
}
