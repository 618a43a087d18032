package partition

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"lancet/internal/cost"
	"lancet/internal/ir"
	"lancet/internal/model"
	"lancet/internal/race"
)

// refApply is the rewrite Apply replaced, kept as its reference: each
// range's axes solved by the reference solver (refInferAxes) and looked up
// in its map per operand, the issue order materialized by schedulePlan,
// every piece tensor, shape, name, operand list and new instruction
// allocated on its own.
func refApply(g *ir.Graph, ranges []Range, gatePartial bool) (*ir.Graph, error) {
	byStart := make([]int, len(ranges))
	for i := range byStart {
		byStart[i] = i
	}
	slices.SortStableFunc(byStart, func(a, b int) int { return cmp.Compare(ranges[a].Start, ranges[b].Start) })
	prevEnd := -1
	for _, i := range byStart {
		r := &ranges[i]
		if r.End < r.Start || r.Start < 0 || r.End >= len(g.Instrs) || r.Start <= prevEnd {
			return nil, fmt.Errorf("bad range %d", i)
		}
		prevEnd = r.End
	}
	ng := ir.Derive(g, 0, 0)
	pos := 0
	for _, i := range byStart {
		r := &ranges[i]
		for _, in := range g.Instrs[pos:r.Start] {
			ng.Emit(in)
		}
		axes := refInferAxes(g, g.Instrs[r.Start:r.End+1], gatePartial)
		if axes == nil {
			return nil, fmt.Errorf("range %d has no partition axes", i)
		}
		refEmitPipeline(g, ng, r, axes)
		pos = r.End + 1
	}
	for _, in := range g.Instrs[pos:] {
		ng.Emit(in)
	}
	if err := ng.Validate(); err != nil {
		return nil, err
	}
	return ng, nil
}

func refEmitPipeline(g, ng *ir.Graph, r *Range, axes map[int]Axis) {
	window := g.Instrs[r.Start : r.End+1]
	k := r.K
	produced := map[int]bool{}
	for _, in := range window {
		for _, t := range in.Outs {
			produced[t] = true
		}
	}
	partBase := map[int]int{}
	parts := func(t int) int {
		if base, ok := partBase[t]; ok {
			return base
		}
		axis := axes[t]
		orig := g.Tensor(t)
		base := len(ng.Tensors)
		for p := 0; p < k; p++ {
			shape := orig.Shape.Clone()
			if dim, ok := splitDim(shape, axis); ok {
				shape[dim] = orig.Shape[dim] / k
				if p < orig.Shape[dim]%k {
					shape[dim]++
				}
			}
			ng.Tensors = append(ng.Tensors, &ir.Tensor{
				ID: base + p, Name: orig.Name + ".p" + strconv.Itoa(p),
				Shape: shape, DType: orig.DType, Kind: orig.Kind,
			})
		}
		partBase[t] = base
		return base
	}
	ids := func(base int) []int {
		out := make([]int, k)
		for p := range out {
			out[p] = base + p
		}
		return out
	}
	seen := map[int]bool{}
	for _, in := range window {
		for _, t := range in.Ins {
			if produced[t] || seen[t] {
				continue
			}
			seen[t] = true
			axis := axes[t]
			if axis == AxisNP {
				continue
			}
			base := parts(t)
			var bytes int64
			if axis == AxisIrr {
				bytes = 2 * g.Tensor(t).Bytes()
			}
			ng.Emit(&ir.Instr{
				Name: g.Tensor(t).Name + ".split", Op: ir.OpPartitionSplit,
				Phase: ir.Forward, Layer: in.Layer,
				Ins: []int{t}, Outs: ids(base), Bytes: bytes, NumParts: k,
			})
		}
	}
	for _, ref := range schedulePlan(window, k) {
		in := window[ref.pos]
		c := *in
		c.FLOPs /= float64(k)
		c.Bytes /= int64(k)
		c.PartIdx, c.NumParts = ref.part, k
		c.Ins = slices.Clone(in.Ins)
		for i, t := range in.Ins {
			if axes[t] != AxisNP {
				c.Ins[i] = parts(t) + ref.part
			}
		}
		c.Outs = slices.Clone(in.Outs)
		for i, t := range in.Outs {
			c.Outs[i] = parts(t) + ref.part
		}
		ng.Emit(&c)
	}
	for _, in := range window {
		for _, t := range in.Outs {
			if g.LastUse(t) <= r.End {
				continue
			}
			var bytes int64
			if axes[t] == AxisIrr {
				bytes = 2 * g.Tensor(t).Bytes()
			}
			ng.Emit(&ir.Instr{
				Name: g.Tensor(t).Name + ".reconstruct", Op: ir.OpReconstruct,
				Phase: ir.Forward, Layer: in.Layer,
				Ins: ids(partBase[t]), Outs: []int{t}, Bytes: bytes, NumParts: k,
			})
		}
	}
}

// dumpGraph prints every field of every tensor and instruction of g.
func dumpGraph(g *ir.Graph) string {
	var b strings.Builder
	for _, t := range g.Tensors {
		fmt.Fprintf(&b, "%+v\n", *t)
	}
	for i, in := range g.Instrs {
		fmt.Fprintf(&b, "@%d %+v\n", i, *in)
	}
	return b.String()
}

// rewriteCase is a range set to rewrite and whether its gates route
// partial batches.
type rewriteCase struct {
	ranges      []Range
	gatePartial bool
}

// rewriteCases returns range sets to rewrite on built graph b: the DP's
// chosen ranges, at their own partition counts and at 12, Tutel's
// capacity-axis cores at degree 4, and single solvable DP windows at
// partition counts 2 to 8, gates and irregular axes among them.
func rewriteCases(t *testing.T, b *model.Built, cm *cost.Model) map[string]rewriteCase {
	t.Helper()
	g := b.Graph
	cases := map[string]rewriteCase{}
	res, err := Run(g, cm, Options{GatePartialBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	cases["dp"] = rewriteCase{res.Ranges, true}
	wide := slices.Clone(res.Ranges)
	for i := range wide {
		wide[i].K = 12 // two-digit piece suffixes
	}
	cases["dp k=12"] = rewriteCase{wide, true}
	var tutel []Range
	for _, h := range b.MoE {
		for _, w := range [][2]int{{h.DispatchA2A, h.CombineA2A}, {h.BwdCombineA2A, h.BwdDispatchA2A}} {
			tutel = append(tutel, Range{Start: w[0], End: w[1], K: 4})
		}
	}
	cases["tutel"] = rewriteCase{tutel, false}
	windows := dpWindows(g, cm)
	for i := 0; i < len(windows); i += 7 {
		start, end := windows[i][0], windows[i][1]-1
		if refInferAxes(g, g.Instrs[start:end+1], true) == nil {
			continue
		}
		k := 2 + i%7
		cases[fmt.Sprintf("window %d..%d k=%d", start, end, k)] = rewriteCase{[]Range{{Start: start, End: end, K: k}}, true}
	}
	return cases
}

// Apply must build exactly the graph the reference builds, tensor for
// tensor and instruction for instruction, names and operands included:
// its solver and rewrite against the reference solver and rewrite.
func TestApplyMatchesReference(t *testing.T) {
	for name, b := range refModels(t) {
		cm := cost.NewModel(b.Cluster)
		for cname, c := range rewriteCases(t, b, cm) {
			got, err := Apply(b.Graph, c.ranges, c.gatePartial)
			if err != nil {
				t.Fatalf("%s %s: %v", name, cname, err)
			}
			want, err := refApply(b.Graph, c.ranges, c.gatePartial)
			if err != nil {
				t.Fatalf("%s %s: reference: %v", name, cname, err)
			}
			if dumpGraph(got) != dumpGraph(want) {
				t.Fatalf("%s %s: rewritten graph differs from the reference", name, cname)
			}
		}
	}
}

// The validation pass sizes the rewrite exactly: every slab is carved to
// its end, and the rewritten graph's tensor and instruction tables are
// full.
func TestRewriteSizedExactly(t *testing.T) {
	for name, b := range refModels(t) {
		cm := cost.NewModel(b.Cluster)
		for cname, c := range rewriteCases(t, b, cm) {
			rw := getRewriter(b.Graph)
			ng, err := rw.apply(c.ranges, c.gatePartial)
			if err != nil {
				t.Fatalf("%s %s: %v", name, cname, err)
			}
			if rw.nt != len(rw.tensors) || rw.ns != len(rw.shapes) || rw.ni != len(rw.instrs) ||
				rw.no != len(rw.ops) || len(rw.names) != rw.n.nameBytes || len(rw.opNames) != rw.n.plumbing {
				t.Errorf("%s %s: sized %+v, carved %d tensors, %d shape ints, %d instrs, %d operands, %d name bytes, %d plumbing ops",
					name, cname, rw.n, rw.nt, rw.ns, rw.ni, rw.no, len(rw.names), len(rw.opNames))
			}
			if len(ng.Tensors) != cap(ng.Tensors) || len(ng.Instrs) != cap(ng.Instrs) {
				t.Errorf("%s %s: %d of %d tensors, %d of %d instructions", name, cname,
					len(ng.Tensors), cap(ng.Tensors), len(ng.Instrs), cap(ng.Instrs))
			}
			putRewriter(rw)
		}
	}
}

func TestIndexDigits(t *testing.T) {
	want := 0
	for k := 0; k <= 1200; k++ {
		if got := indexDigits(k); got != want {
			t.Fatalf("indexDigits(%d) = %d, want %d", k, got, want)
		}
		want += len(strconv.Itoa(k))
	}
}

// rewriteAllocs is what Apply allocates, however many ranges it rewrites:
// the derived graph and its three tables, and the five slabs — piece
// tensors, shape ints, instructions, operand ints and the name string.
const rewriteAllocs = 9

// Apply of the DP's ranges allocates per rewrite, not per range or per
// instruction: on GPT2-S and GPT2-L it makes rewriteAllocs allocations,
// as many as a rewrite of the first range alone.
func TestApplyAllocatesPerRewrite(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	built, scm := benchFixture(t)
	lg, lcm, lopts := gpt2LFixture(t)
	for _, c := range []struct {
		name string
		g    *ir.Graph
		cm   *cost.Model
		opts Options
	}{
		{"GPT2-S", built.Graph, scm, Options{GatePartialBatch: true}},
		{"GPT2-L", lg, lcm, lopts},
	} {
		res, err := Run(c.g, c.cm, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Ranges) < 2 {
			t.Fatalf("%s: the DP chose %d pipelines; the pin needs several", c.name, len(res.Ranges))
		}
		all := testing.AllocsPerRun(20, func() {
			if _, err := Apply(c.g, res.Ranges, c.opts.GatePartialBatch); err != nil {
				t.Fatal(err)
			}
		})
		one := testing.AllocsPerRun(20, func() {
			if _, err := Apply(c.g, res.Ranges[:1], c.opts.GatePartialBatch); err != nil {
				t.Fatal(err)
			}
		})
		if all > rewriteAllocs || all != one {
			t.Errorf("%s: Apply of %d ranges allocates %v objects, of one %v; want %d for both",
				c.name, len(res.Ranges), all, one, rewriteAllocs)
		}
	}
}
