package model

import (
	"slices"
	"testing"

	"lancet/internal/hw"
	"lancet/internal/ir"
)

func buildSmall(t *testing.T) *Built {
	t.Helper()
	cfg := GPT2SMoE()
	cfg.BatchPerGPU = cfg.PaperBatchSize("V100")
	b, err := Build(cfg, hw.V100Cluster(2))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// dwCount counts g's weight-gradient instructions.
func dwCount(g *ir.Graph) int {
	n := 0
	for _, in := range g.Instrs {
		if in.IsDW() {
			n++
		}
	}
	return n
}

// totalFLOPs sums g's instruction FLOPs.
func totalFLOPs(g *ir.Graph) float64 {
	f := 0.0
	for _, in := range g.Instrs {
		f += in.FLOPs
	}
	return f
}

// consumers scans g's instructions for the readers of tensors, once per
// operand that reads one.
func consumers(g *ir.Graph, tensors []int) []*ir.Instr {
	var out []*ir.Instr
	for _, in := range g.Instrs {
		for _, x := range in.Ins {
			if slices.Contains(tensors, x) {
				out = append(out, in)
			}
		}
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	good := GPT2SMoE()
	good.BatchPerGPU = 8
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mut := func(f func(*Config)) Config { c := good; f(&c); return c }
	bad := []Config{
		mut(func(c *Config) { c.Layers = 0 }),
		mut(func(c *Config) { c.Hidden = 770 }), // not divisible by heads
		mut(func(c *Config) { c.Heads = 0 }),
		mut(func(c *Config) { c.SeqLen = 0 }),
		mut(func(c *Config) { c.BatchPerGPU = -1 }),
		mut(func(c *Config) { c.MoEEvery = 0 }),
		mut(func(c *Config) { c.ExpertsPerGPU = 0 }),
		mut(func(c *Config) { c.CapacityFactor = 0 }),
		mut(func(c *Config) { c.FFNMult = 0 }),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestMoELayerPlacement(t *testing.T) {
	cfg := GPT2SMoE()
	want := []int{1, 3, 5, 7, 9, 11}
	var got []int
	for l := 0; l < cfg.Layers; l++ {
		if cfg.IsMoELayer(l) {
			got = append(got, l)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("MoE layers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MoE layers = %v, want %v", got, want)
		}
	}
	if cfg.NumMoELayers() != 6 {
		t.Errorf("NumMoELayers = %d, want 6", cfg.NumMoELayers())
	}
}

func TestCapacityMath(t *testing.T) {
	cfg := GPT2SMoE()
	cfg.BatchPerGPU = 16
	// 16*512 = 8192 tokens, 32 experts, top-1, cf 1.25 -> 320.
	if got := cfg.Capacity(32); got != 320 {
		t.Errorf("Capacity = %d, want 320", got)
	}
	top2 := cfg
	top2.Gate = GateTop2
	if got := top2.Capacity(32); got != 640 {
		t.Errorf("top-2 Capacity = %d, want 640", got)
	}
	tiny := cfg
	tiny.BatchPerGPU = 1
	tiny.SeqLen = 1
	if got := tiny.Capacity(1024); got != 1 {
		t.Errorf("capacity floor = %d, want 1", got)
	}
}

func TestPaperBatchSizes(t *testing.T) {
	s, l := GPT2SMoE(), GPT2LMoE()
	cases := []struct {
		cfg  Config
		gpu  string
		want int
	}{
		{s, "A100", 24}, {l, "A100", 48}, {s, "V100", 16}, {l, "V100", 8},
	}
	for _, c := range cases {
		if got := c.cfg.PaperBatchSize(c.gpu); got != c.want {
			t.Errorf("%s on %s: batch %d, want %d", c.cfg.Name, c.gpu, got, c.want)
		}
	}
}

func TestGateProperties(t *testing.T) {
	partial := map[GateKind]bool{
		GateSwitch: true, GateTop2: true, GateRandom: true, GateHash: true,
		GateBatchPriority: false,
	}
	for k, want := range partial {
		if got := k.SupportsPartialBatch(); got != want {
			t.Errorf("%v.SupportsPartialBatch = %v, want %v", k, got, want)
		}
	}
	if GateSwitch.TopK() != 1 || GateTop2.TopK() != 2 {
		t.Error("wrong TopK")
	}
}

func TestBuildGraphValid(t *testing.T) {
	b := buildSmall(t)
	if err := b.Graph.Validate(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
	if len(b.MoE) != b.Config.NumMoELayers() {
		t.Errorf("got %d MoE handle sets, want %d", len(b.MoE), b.Config.NumMoELayers())
	}
}

func TestA2ACount(t *testing.T) {
	b := buildSmall(t)
	// 2 forward + 2 backward all-to-alls per MoE layer.
	want := 4 * b.Config.NumMoELayers()
	if got := len(b.Graph.AllToAlls()); got != want {
		t.Errorf("a2a count = %d, want %d", got, want)
	}
}

func TestDWCount(t *testing.T) {
	b := buildSmall(t)
	// Per dense layer: qkv, proj, ffn1, ffn2 = 4. Per MoE layer: qkv, proj,
	// experts, gate = 4. Plus lm_head and embedding.
	want := 4*b.Config.Layers + 2
	if got := dwCount(b.Graph); got != want {
		t.Errorf("dW count = %d, want %d", got, want)
	}
}

func TestMoEHandlesWired(t *testing.T) {
	b := buildSmall(t)
	g := b.Graph
	for _, h := range b.MoE {
		if g.Instr(h.Gate).Op != ir.OpGate {
			t.Errorf("layer %d: Gate handle is %v", h.Layer, g.Instr(h.Gate).Op)
		}
		for _, id := range []int{h.DispatchA2A, h.CombineA2A, h.BwdCombineA2A, h.BwdDispatchA2A} {
			if g.Instr(id).Op != ir.OpAllToAll {
				t.Errorf("layer %d: handle @%d is %v, want all_to_all", h.Layer, id, g.Instr(id).Op)
			}
		}
		if g.Instr(h.Experts).Op != ir.OpExpertFFN || g.Instr(h.BwdExpertsDW).Grad != ir.GradDW {
			t.Errorf("layer %d: expert handles miswired", h.Layer)
		}
		if g.Instr(h.Gather).Op != ir.OpMoEGather {
			t.Errorf("layer %d: Gather handle is %v", h.Layer, g.Instr(h.Gather).Op)
		}
		// The forward MoE chain must be connected in order.
		chain := []int{h.Gate, h.DispatchA2A, h.Experts, h.CombineA2A, h.Gather}
		for i := 0; i+1 < len(chain); i++ {
			if !g.ReachableFrom(chain[i])[chain[i+1]] {
				t.Errorf("layer %d: @%d does not reach @%d", h.Layer, chain[i], chain[i+1])
			}
		}
	}
}

// The core scheduling opportunity (paper Sec. 2.3): a dW op of a later layer
// is independent of an earlier layer's backward all-to-all, while the dX
// chain is not.
func TestDWIndependentOfEarlierA2A(t *testing.T) {
	b := buildSmall(t)
	g := b.Graph
	// MoE handles are appended in backward order: b.MoE[0] is layer 11,
	// b.MoE[1] is layer 9, etc.
	l11, l9 := b.MoE[0], b.MoE[1]
	if l11.Layer <= l9.Layer {
		t.Fatalf("expected backward order, got layers %d, %d", l11.Layer, l9.Layer)
	}
	// Find layer 11's attn-proj dW.
	var dwProj11 int = -1
	for _, in := range g.Instrs {
		if in.Layer == l11.Layer && in.Grad == ir.GradDW && in.Op == ir.OpMatMul {
			dwProj11 = in.ID
			break
		}
	}
	if dwProj11 == -1 {
		t.Fatal("no dW matmul found in layer 11")
	}
	if !g.Independent(dwProj11, l9.BwdCombineA2A) {
		t.Error("layer-11 dW must be independent of layer-9 backward a2a")
	}
	// Layer-9 backward gather is on the dX chain through layer 11: dependent.
	if g.Independent(l11.BwdGate, l9.BwdGather) {
		t.Error("dX chain ops must not be independent across layers")
	}
	// Expert dW of layer 11 must be independent of layer 9's a2a too.
	if !g.Independent(l11.BwdExpertsDW, l9.BwdCombineA2A) {
		t.Error("expert dW must be independent of later backward a2a")
	}
}

func TestForwardBackwardFLOPBalance(t *testing.T) {
	b := buildSmall(t)
	var fwd, bwd float64
	for _, in := range b.Graph.Instrs {
		switch in.Phase {
		case ir.Forward:
			fwd += in.FLOPs
		case ir.Backward:
			bwd += in.FLOPs
		}
	}
	ratio := bwd / fwd
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("backward/forward FLOP ratio = %.2f, want ~2", ratio)
	}
}

func TestA2ABytes(t *testing.T) {
	b := buildSmall(t)
	cfg := b.Config
	e := b.TotalExperts
	wantC := cfg.Capacity(e)
	if b.CapacityC != wantC {
		t.Errorf("CapacityC = %d, want %d", b.CapacityC, wantC)
	}
	want := int64(e) * int64(wantC) * int64(cfg.Hidden) * cfg.DType.Size()
	if b.A2ABytes != want {
		t.Errorf("A2ABytes = %d, want %d", b.A2ABytes, want)
	}
	for _, id := range b.Graph.AllToAlls() {
		if got := b.Graph.Instr(id).Bytes; got != want {
			t.Errorf("a2a @%d bytes = %d, want %d", id, got, want)
		}
	}
}

func TestExpertWeightsNotAllReduced(t *testing.T) {
	b := buildSmall(t)
	g := b.Graph
	// Expert dW tensors must not feed any all-reduce (expert parallelism).
	for _, h := range b.MoE {
		dw := g.Instr(h.BwdExpertsDW)
		for _, c := range consumers(g, dw.Outs) {
			if c.Op == ir.OpAllReduce {
				t.Errorf("layer %d: expert grads feed all-reduce @%d", h.Layer, c.ID)
			}
		}
	}
}

func TestSyncGradientsToggle(t *testing.T) {
	cfg := GPT2SMoE()
	cfg.BatchPerGPU = 8
	cfg.SyncGradients = false
	b, err := Build(cfg, hw.V100Cluster(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range b.Graph.Instrs {
		if in.Op == ir.OpAllReduce {
			t.Fatal("SyncGradients=false must emit no all-reduce")
		}
	}
	// a2a remains.
	if len(b.Graph.AllToAlls()) == 0 {
		t.Error("a2a must remain without gradient sync")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := buildSmall(t)
	b := buildSmall(t)
	if len(a.Graph.Instrs) != len(b.Graph.Instrs) {
		t.Fatal("instruction counts differ across builds")
	}
	for i := range a.Graph.Instrs {
		x, y := a.Graph.Instrs[i], b.Graph.Instrs[i]
		if x.Name != y.Name || x.Op != y.Op || x.FLOPs != y.FLOPs || x.Bytes != y.Bytes {
			t.Fatalf("instr %d differs: %v vs %v", i, x, y)
		}
	}
}

func TestWeightScalesWithModel(t *testing.T) {
	cfgS, cfgL := GPT2SMoE(), GPT2LMoE()
	cfgS.BatchPerGPU, cfgL.BatchPerGPU = 8, 8
	cl := hw.V100Cluster(2)
	s, err := Build(cfgS, cl)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Build(cfgL, cl)
	if err != nil {
		t.Fatal(err)
	}
	if l.WeightBytes <= s.WeightBytes {
		t.Error("GPT2-L must have more parameters than GPT2-S")
	}
	if l.ActivationBytes <= s.ActivationBytes {
		t.Error("GPT2-L must store more activations")
	}
}

func TestMemoryModelOrdering(t *testing.T) {
	b := buildSmall(t)
	c := b.MemoryBytes(MemoryCompiled)
	tu := b.MemoryBytes(MemoryTutel)
	ds := b.MemoryBytes(MemoryDeepSpeed)
	if !(c <= tu && tu < ds) {
		t.Errorf("memory ordering compiled(%d) <= tutel(%d) < deepspeed(%d) violated", c, tu, ds)
	}
}

func TestWeakScalingKeepsPerDeviceWork(t *testing.T) {
	cfg := GPT2SMoE()
	cfg.BatchPerGPU = 16
	b16, err := Build(cfg, hw.V100Cluster(2))
	if err != nil {
		t.Fatal(err)
	}
	b64, err := Build(cfg, hw.V100Cluster(8))
	if err != nil {
		t.Fatal(err)
	}
	// Per-device a2a payload is invariant under weak scaling (E*C == cf*T*k).
	if b16.A2ABytes != b64.A2ABytes {
		t.Errorf("a2a payload changed under weak scaling: %d vs %d", b16.A2ABytes, b64.A2ABytes)
	}
	if b16.TotalExperts*4 != b64.TotalExperts {
		t.Errorf("experts should scale with GPUs: %d vs %d", b16.TotalExperts, b64.TotalExperts)
	}
	// Per-device FLOPs are near-invariant: only the gate projection grows
	// with the total expert count, and it is a tiny fraction of the work.
	f16, f64 := totalFLOPs(b16.Graph), totalFLOPs(b64.Graph)
	if rel := (f64 - f16) / f16; rel < 0 || rel > 0.01 {
		t.Errorf("per-device FLOPs changed by %.2f%% under weak scaling", rel*100)
	}
}

func TestViTClassifierBuild(t *testing.T) {
	cfg := ViTSMoE()
	cl := hw.V100Cluster(2)
	b, err := Build(cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	// Same MoE structure as the LM models: 4 a2a per MoE layer.
	if got, want := len(b.Graph.AllToAlls()), 4*cfg.NumMoELayers(); got != want {
		t.Errorf("a2a count = %d, want %d", got, want)
	}
	// Classifier-specific ops present, LM head absent.
	var pool, clsHead, lmHead int
	for _, in := range b.Graph.Instrs {
		switch in.Name {
		case "pool":
			pool++
		case "cls_head":
			clsHead++
		case "lm_head":
			lmHead++
		}
	}
	if pool != 2 || clsHead != 3 { // fwd + dX (+dW for the head)
		t.Errorf("classifier head ops: pool=%d cls_head=%d", pool, clsHead)
	}
	if lmHead != 0 {
		t.Error("classifier must not emit an LM head")
	}
	// The classifier head weight is synced separately from the embedding.
	var headSync bool
	for _, in := range b.Graph.Instrs {
		if in.Op == ir.OpAllReduce && in.Name == "cls_head.allreduce" {
			headSync = true
		}
	}
	if !headSync {
		t.Error("classifier head gradients must be all-reduced")
	}
}

func TestClassifierValidation(t *testing.T) {
	cfg := ViTSMoE()
	cfg.NumClasses = 0
	if err := cfg.Validate(); err == nil {
		t.Error("classifier without NumClasses must be rejected")
	}
}
