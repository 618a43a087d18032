package model

import (
	"fmt"

	"lancet/internal/hw"
	"lancet/internal/ir"
)

// MoEHandles records the instruction IDs of one MoE layer's operators —
// their positions in the built graph — used by the partition pass and by
// experiments to locate the focus region.
type MoEHandles struct {
	Layer int
	// Forward pass.
	Gate, DispatchA2A, Experts, CombineA2A, Gather int
	// Backward pass.
	BwdGather, BwdCombineA2A, BwdExpertsDX, BwdExpertsDW, BwdDispatchA2A, BwdGate int

	bwdExpDW1, bwdExpDW2 int // tensor IDs of the expert weight gradients
}

// Built is a constructed training graph plus the metadata passes need.
type Built struct {
	Graph   *ir.Graph
	Config  Config
	Cluster hw.Cluster

	MoE []MoEHandles

	// Derived sizes.
	TotalExperts int
	CapacityC    int   // per-device per-expert capacity
	A2ABytes     int64 // padded per-device payload of one all-to-all

	// Memory accounting (per device).
	WeightBytes     int64 // replicated non-expert params + local experts
	ActivationBytes int64 // stored forward activations
}

// builder carries the in-progress graph and model dimensions.
type builder struct {
	g   *ir.Graph
	cfg Config

	b, s, h, heads, ffn, v int
	t                      int // tokens per device
	gpus, experts, localE  int
	capC                   int
	dsize                  int64

	// pendingUpdates defers optimizer instructions until after the whole
	// backward pass, matching real training (and keeping the in-order
	// compute stream from stalling on gradient all-reduces mid-backward).
	pendingUpdates []*ir.Instr
}

// Build constructs the full training iteration graph for cfg on cluster.
func Build(cfg Config, cluster hw.Cluster) (*Built, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := cluster.TotalGPUs()
	bd := &builder{
		g: ir.NewGraph(), cfg: cfg,
		b: cfg.BatchPerGPU, s: cfg.SeqLen, h: cfg.Hidden, heads: cfg.Heads,
		ffn: cfg.FFNMult * cfg.Hidden, v: cfg.VocabSize,
		t:    cfg.TokensPerGPU(),
		gpus: g, experts: g * cfg.ExpertsPerGPU, localE: cfg.ExpertsPerGPU,
		dsize: cfg.DType.Size(),
	}
	bd.capC = cfg.Capacity(bd.experts)

	built := &Built{
		Config: cfg, Cluster: cluster,
		TotalExperts: bd.experts, CapacityC: bd.capC,
		A2ABytes: int64(bd.experts) * int64(bd.capC) * int64(bd.h) * bd.dsize,
	}
	bd.emitTraining(built)
	built.Graph = bd.g
	if err := bd.g.Validate(); err != nil {
		return nil, fmt.Errorf("model: built graph invalid: %w", err)
	}
	for _, t := range bd.g.Tensors {
		switch t.Kind {
		case ir.Weight:
			built.WeightBytes += t.Bytes()
		case ir.Activation:
			built.ActivationBytes += t.Bytes()
		}
	}
	return built, nil
}

// ---------------------------------------------------------------------------
// Tensor and op helpers.
// ---------------------------------------------------------------------------

func (bd *builder) act(name string, shape ...int) *ir.Tensor {
	return bd.g.NewTensor(name, ir.Shape(shape), bd.cfg.DType, ir.Activation)
}

func (bd *builder) grad(name string, shape ...int) *ir.Tensor {
	return bd.g.NewTensor(name, ir.Shape(shape), bd.cfg.DType, ir.Gradient)
}

func (bd *builder) weight(name string, shape ...int) *ir.Tensor {
	return bd.g.NewTensor(name, ir.Shape(shape), bd.cfg.DType, ir.Weight)
}

func (bd *builder) meta(name string, shape ...int) *ir.Tensor {
	return bd.g.NewTensor(name, ir.Shape(shape), ir.I32, ir.Meta)
}

// actBytes is the memory traffic of touching n elements r+w times.
func (bd *builder) actBytes(elems int64, touches int64) int64 { return elems * bd.dsize * touches }

func mmFLOPs(m, n, k int) float64 { return 2 * float64(m) * float64(n) * float64(k) }

// fwd layer tensor bookkeeping needed by the backward pass.
type layerActs struct {
	moe bool

	ln1In, ln1Out          *ir.Tensor
	qkvOut                 *ir.Tensor
	scoresOut, softmaxOut  *ir.Tensor
	ctxOut, projOut, resid *ir.Tensor
	ln2Out                 *ir.Tensor

	// Dense FFN path.
	ffn1Out, geluOut, ffn2Out *ir.Tensor
	// MoE path.
	gateOut, gateMeta, dispOut, expOut, combOut, gatherOut *ir.Tensor
	blockOut                                               *ir.Tensor
	// Shared-expert path (optional).
	sh1Out, shGeluOut, sh2Out *ir.Tensor

	// Weights.
	wqkv, wproj, wffn1, wffn2, wgate, wexp1, wexp2, wsh1, wsh2 *ir.Tensor

	h MoEHandles
}

// ---------------------------------------------------------------------------
// Training graph emission.
// ---------------------------------------------------------------------------

func (bd *builder) emitTraining(built *Built) {
	g, cfg := bd.g, bd.cfg
	b, s, h, t, v := bd.b, bd.s, bd.h, bd.t, bd.v

	// ---- Forward ----
	tokens := bd.meta("input_ids", b, s)
	wemb := bd.weight("w_embed", v, h)
	wlnf := bd.weight("w_lnf", h)
	bd.maybeAllGather("model.", -1, []*ir.Tensor{wemb, wlnf})
	embOut := bd.act("embed_out", b, s, h)
	g.Emit(&ir.Instr{
		Name: "embedding", Op: ir.OpEmbedding, Phase: ir.Forward, Layer: -1,
		Ins: []int{tokens.ID, wemb.ID}, Outs: []int{embOut.ID},
		Bytes: bd.actBytes(int64(t)*int64(h), 2),
	})

	cur := embOut
	layers := make([]*layerActs, cfg.Layers)
	for l := 0; l < cfg.Layers; l++ {
		la := bd.emitBlockForward(l, cur)
		layers[l] = la
		cur = la.blockOut
	}

	lnfOut := bd.act("lnf_out", b, s, h)
	g.Emit(&ir.Instr{
		Name: "lnf", Op: ir.OpLayerNorm, Phase: ir.Forward, Layer: -1,
		Ins: []int{cur.ID, wlnf.ID}, Outs: []int{lnfOut.ID},
		Bytes: bd.actBytes(int64(t)*int64(h), 2),
	})
	var dCur *ir.Tensor
	var headGrads []*ir.Tensor
	var headWeights []*ir.Tensor
	if cfg.Objective == ObjectiveClassifier {
		dCur, headGrads, headWeights = bd.emitClassifierHead(tokens, lnfOut, cur)
	} else {
		dCur, headGrads = bd.emitLMHead(tokens, wemb, lnfOut, cur)
	}

	for l := cfg.Layers - 1; l >= 0; l-- {
		dCur = bd.emitBlockBackward(layers[l], dCur, built)
	}

	dEmb := bd.grad("dw_embed", v, h)
	g.Emit(&ir.Instr{
		Name: "embedding", Op: ir.OpEmbedding, Grad: ir.GradDW, Phase: ir.Backward, Layer: -1,
		Ins: []int{tokens.ID, dCur.ID}, Outs: []int{dEmb.ID},
		Bytes: bd.actBytes(int64(t)*int64(h), 2),
	})

	// ---- Gradient sync + optimizer for the embedding/head buckets ----
	if cfg.Objective == ObjectiveClassifier {
		// Separate classifier head; patch embedding syncs on its own.
		bd.emitSyncAndUpdate("embed", -1, []*ir.Tensor{dEmb}, []*ir.Tensor{wemb})
		bd.emitSyncAndUpdate("cls_head", -1, headGrads, headWeights)
	} else {
		// The embedding and LM head share one weight (tied), so the two dW
		// tensors accumulate into a single V x H gradient before the
		// all-reduce: the bucket is one copy, with both dW ops as inputs.
		bd.emitSyncAndUpdateSized("embed", -1, append([]*ir.Tensor{dEmb}, headGrads...),
			[]*ir.Tensor{wemb}, dEmb.Bytes())
	}

	// Flush all deferred optimizer updates after backward completes.
	for _, up := range bd.pendingUpdates {
		g.Emit(up)
	}
	bd.pendingUpdates = nil
}

// emitBlockForward builds one transformer block and returns its tensors.
func (bd *builder) emitBlockForward(l int, x *ir.Tensor) *layerActs {
	g, cfg := bd.g, bd.cfg
	b, s, h, heads, t := bd.b, bd.s, bd.h, bd.heads, bd.t
	la := &layerActs{moe: cfg.IsMoELayer(l), ln1In: x}
	la.h.Layer = l
	pfx := fmt.Sprintf("l%d.", l)

	// All replicated weights are created up front so ZeRO-3 sharding can
	// materialize them with one all-gather before the layer's computation.
	wln1 := bd.weight(pfx+"w_ln1", h)
	la.wqkv = bd.weight(pfx+"w_qkv", h, 3*h)
	la.wproj = bd.weight(pfx+"w_proj", h, h)
	wln2 := bd.weight(pfx+"w_ln2", h)
	replicated := []*ir.Tensor{wln1, la.wqkv, la.wproj, wln2}
	if la.moe {
		la.wgate = bd.weight(pfx+"w_gate", h, bd.experts)
		la.wexp1 = bd.weight(pfx+"w_exp1", bd.localE, h, bd.ffn)
		la.wexp2 = bd.weight(pfx+"w_exp2", bd.localE, bd.ffn, h)
		replicated = append(replicated, la.wgate) // expert weights stay local
		if cfg.SharedExpert {
			la.wsh1 = bd.weight(pfx+"w_shared1", h, bd.ffn)
			la.wsh2 = bd.weight(pfx+"w_shared2", bd.ffn, h)
			replicated = append(replicated, la.wsh1, la.wsh2)
		}
	} else {
		la.wffn1 = bd.weight(pfx+"w_ffn1", h, bd.ffn)
		la.wffn2 = bd.weight(pfx+"w_ffn2", bd.ffn, h)
		replicated = append(replicated, la.wffn1, la.wffn2)
	}
	bd.maybeAllGather(pfx, l, replicated)

	la.ln1Out = bd.act(pfx+"ln1_out", b, s, h)
	g.Emit(&ir.Instr{
		Name: pfx + "ln1", Op: ir.OpLayerNorm, Phase: ir.Forward, Layer: l,
		Ins: []int{x.ID, wln1.ID}, Outs: []int{la.ln1Out.ID},
		Bytes: bd.actBytes(int64(t)*int64(h), 2),
	})

	la.qkvOut = bd.act(pfx+"qkv_out", b, s, 3*h)
	g.Emit(&ir.Instr{
		Name: pfx + "qkv", Op: ir.OpMatMul, Phase: ir.Forward, Layer: l,
		Ins: []int{la.ln1Out.ID, la.wqkv.ID}, Outs: []int{la.qkvOut.ID},
		FLOPs: mmFLOPs(t, 3*h, h),
	})

	la.scoresOut = bd.act(pfx+"attn_scores", b, heads, s, s)
	g.Emit(&ir.Instr{
		Name: pfx + "attn_scores", Op: ir.OpAttnScores, Phase: ir.Forward, Layer: l,
		Ins: []int{la.qkvOut.ID}, Outs: []int{la.scoresOut.ID},
		FLOPs: 2 * float64(t) * float64(s) * float64(h),
	})
	la.softmaxOut = bd.act(pfx+"attn_probs", b, heads, s, s)
	g.Emit(&ir.Instr{
		Name: pfx + "softmax", Op: ir.OpSoftmax, Phase: ir.Forward, Layer: l,
		Ins: []int{la.scoresOut.ID}, Outs: []int{la.softmaxOut.ID},
		Bytes: bd.actBytes(int64(b)*int64(heads)*int64(s)*int64(s), 2),
	})
	la.ctxOut = bd.act(pfx+"attn_ctx", b, s, h)
	g.Emit(&ir.Instr{
		Name: pfx + "attn_ctx", Op: ir.OpAttnContext, Phase: ir.Forward, Layer: l,
		Ins: []int{la.softmaxOut.ID, la.qkvOut.ID}, Outs: []int{la.ctxOut.ID},
		FLOPs: 2 * float64(t) * float64(s) * float64(h),
	})
	la.projOut = bd.act(pfx+"attn_proj", b, s, h)
	g.Emit(&ir.Instr{
		Name: pfx + "attn_proj", Op: ir.OpMatMul, Phase: ir.Forward, Layer: l,
		Ins: []int{la.ctxOut.ID, la.wproj.ID}, Outs: []int{la.projOut.ID},
		FLOPs: mmFLOPs(t, h, h),
	})
	la.resid = bd.act(pfx+"resid1", b, s, h)
	g.Emit(&ir.Instr{
		Name: pfx + "resid1", Op: ir.OpAdd, Phase: ir.Forward, Layer: l,
		Ins: []int{x.ID, la.projOut.ID}, Outs: []int{la.resid.ID},
		Bytes: bd.actBytes(int64(t)*int64(h), 3),
	})

	la.ln2Out = bd.act(pfx+"ln2_out", b, s, h)
	g.Emit(&ir.Instr{
		Name: pfx + "ln2", Op: ir.OpLayerNorm, Phase: ir.Forward, Layer: l,
		Ins: []int{la.resid.ID, wln2.ID}, Outs: []int{la.ln2Out.ID},
		Bytes: bd.actBytes(int64(t)*int64(h), 2),
	})

	if la.moe {
		bd.emitMoEForward(l, la)
	} else {
		bd.emitFFNForward(l, la)
	}
	return la
}

func (bd *builder) emitFFNForward(l int, la *layerActs) {
	g := bd.g
	b, s, h, ffn, t := bd.b, bd.s, bd.h, bd.ffn, bd.t
	pfx := fmt.Sprintf("l%d.", l)

	la.ffn1Out = bd.act(pfx+"ffn1_out", b, s, ffn)
	g.Emit(&ir.Instr{
		Name: pfx + "ffn1", Op: ir.OpMatMul, Phase: ir.Forward, Layer: l,
		Ins: []int{la.ln2Out.ID, la.wffn1.ID}, Outs: []int{la.ffn1Out.ID},
		FLOPs: mmFLOPs(t, ffn, h),
	})
	la.geluOut = bd.act(pfx+"gelu_out", b, s, ffn)
	g.Emit(&ir.Instr{
		Name: pfx + "gelu", Op: ir.OpGeLU, Phase: ir.Forward, Layer: l,
		Ins: []int{la.ffn1Out.ID}, Outs: []int{la.geluOut.ID},
		Bytes: bd.actBytes(int64(t)*int64(ffn), 2),
	})
	la.ffn2Out = bd.act(pfx+"ffn2_out", b, s, h)
	g.Emit(&ir.Instr{
		Name: pfx + "ffn2", Op: ir.OpMatMul, Phase: ir.Forward, Layer: l,
		Ins: []int{la.geluOut.ID, la.wffn2.ID}, Outs: []int{la.ffn2Out.ID},
		FLOPs: mmFLOPs(t, h, ffn),
	})
	la.blockOut = bd.act(pfx+"block_out", b, s, h)
	g.Emit(&ir.Instr{
		Name: pfx + "resid2", Op: ir.OpAdd, Phase: ir.Forward, Layer: l,
		Ins: []int{la.resid.ID, la.ffn2Out.ID}, Outs: []int{la.blockOut.ID},
		Bytes: bd.actBytes(int64(t)*int64(h), 3),
	})
}

func (bd *builder) emitMoEForward(l int, la *layerActs) {
	g := bd.g
	b, s, h, ffn, t := bd.b, bd.s, bd.h, bd.ffn, bd.t
	e, el, c := bd.experts, bd.localE, bd.capC
	pfx := fmt.Sprintf("l%d.", l)
	a2aBytes := int64(e) * int64(c) * int64(h) * bd.dsize

	la.gateOut = bd.act(pfx+"gate_dispatch", e, c, h)
	la.gateMeta = bd.meta(pfx+"gate_meta", t)
	la.h.Gate = g.Emit(&ir.Instr{
		Name: pfx + "gate", Op: ir.OpGate, Phase: ir.Forward, Layer: l,
		Ins: []int{la.ln2Out.ID, la.wgate.ID}, Outs: []int{la.gateOut.ID, la.gateMeta.ID},
		FLOPs: mmFLOPs(t, e, h),
		Bytes: bd.actBytes(int64(t)*int64(h), 2),
	})

	la.dispOut = bd.act(pfx+"a2a_dispatch_out", e, c, h)
	la.h.DispatchA2A = g.Emit(&ir.Instr{
		Name: pfx + "a2a_dispatch", Op: ir.OpAllToAll, Phase: ir.Forward, Layer: l,
		Ins: []int{la.gateOut.ID}, Outs: []int{la.dispOut.ID},
		Bytes: a2aBytes, CommDevices: bd.gpus,
	})

	if bd.cfg.SharedExpert {
		// The shared expert depends only on ln2 output, so the compute
		// stream runs it while the dispatch all-to-all is in flight.
		la.sh1Out = bd.act(pfx+"shared_ffn1_out", b, s, ffn)
		g.Emit(&ir.Instr{
			Name: pfx + "shared_ffn1", Op: ir.OpMatMul, Phase: ir.Forward, Layer: l,
			Ins: []int{la.ln2Out.ID, la.wsh1.ID}, Outs: []int{la.sh1Out.ID},
			FLOPs: mmFLOPs(t, ffn, h),
		})
		la.shGeluOut = bd.act(pfx+"shared_gelu_out", b, s, ffn)
		g.Emit(&ir.Instr{
			Name: pfx + "shared_gelu", Op: ir.OpGeLU, Phase: ir.Forward, Layer: l,
			Ins: []int{la.sh1Out.ID}, Outs: []int{la.shGeluOut.ID},
			Bytes: bd.actBytes(int64(t)*int64(ffn), 2),
		})
		la.sh2Out = bd.act(pfx+"shared_ffn2_out", b, s, h)
		g.Emit(&ir.Instr{
			Name: pfx + "shared_ffn2", Op: ir.OpMatMul, Phase: ir.Forward, Layer: l,
			Ins: []int{la.shGeluOut.ID, la.wsh2.ID}, Outs: []int{la.sh2Out.ID},
			FLOPs: mmFLOPs(t, h, ffn),
		})
	}

	la.expOut = bd.act(pfx+"experts_out", e, c, h)
	la.h.Experts = g.Emit(&ir.Instr{
		Name: pfx + "experts", Op: ir.OpExpertFFN, Phase: ir.Forward, Layer: l,
		Ins: []int{la.dispOut.ID, la.wexp1.ID, la.wexp2.ID}, Outs: []int{la.expOut.ID},
		FLOPs:   4 * float64(e) * float64(c) * float64(h) * float64(ffn),
		Kernels: 2 * el, // one GEMM per local expert per projection
	})

	la.combOut = bd.act(pfx+"a2a_combine_out", e, c, h)
	la.h.CombineA2A = g.Emit(&ir.Instr{
		Name: pfx + "a2a_combine", Op: ir.OpAllToAll, Phase: ir.Forward, Layer: l,
		Ins: []int{la.expOut.ID}, Outs: []int{la.combOut.ID},
		Bytes: a2aBytes, CommDevices: bd.gpus,
	})

	la.gatherOut = bd.act(pfx+"moe_out", b, s, h)
	la.h.Gather = g.Emit(&ir.Instr{
		Name: pfx + "moe_gather", Op: ir.OpMoEGather, Phase: ir.Forward, Layer: l,
		Ins: []int{la.combOut.ID, la.gateMeta.ID}, Outs: []int{la.gatherOut.ID},
		Bytes: bd.actBytes(int64(t)*int64(h), 2),
	})

	residIns := []int{la.resid.ID, la.gatherOut.ID}
	if bd.cfg.SharedExpert {
		residIns = append(residIns, la.sh2Out.ID)
	}
	la.blockOut = bd.act(pfx+"block_out", b, s, h)
	g.Emit(&ir.Instr{
		Name: pfx + "resid2", Op: ir.OpAdd, Phase: ir.Forward, Layer: l,
		Ins: residIns, Outs: []int{la.blockOut.ID},
		Bytes: bd.actBytes(int64(t)*int64(h), 3),
	})
}

// emitBlockBackward emits the reverse ops for one block, returning the
// gradient flowing into the block's input. dOut is the gradient of the
// block output; residual fan-out reuses the same gradient tensor on both
// paths, and path joins are explicit adds.
func (bd *builder) emitBlockBackward(la *layerActs, dOut *ir.Tensor, built *Built) *ir.Tensor {
	g := bd.g
	b, s, h, heads, t := bd.b, bd.s, bd.h, bd.heads, bd.t
	l := la.h.Layer
	pfx := fmt.Sprintf("l%d.", l)

	var dResid *ir.Tensor // gradient w.r.t. resid1 coming through the FFN/MoE path
	var layerGrads []*ir.Tensor
	var layerWeights []*ir.Tensor

	if la.moe {
		var moeGrads, moeWeights []*ir.Tensor
		dResid, moeGrads, moeWeights = bd.emitMoEBackward(la, dOut)
		layerGrads = append(layerGrads, moeGrads...)
		layerWeights = append(layerWeights, moeWeights...)
	} else {
		var ffnGrads []*ir.Tensor
		dResid, ffnGrads = bd.emitFFNBackward(la, dOut)
		layerGrads = append(layerGrads, ffnGrads...)
		layerWeights = append(layerWeights, la.wffn1, la.wffn2)
	}

	// Join the skip path (dOut) with the FFN/MoE path gradient.
	dResidJoined := bd.grad(pfx+"d_resid1", b, s, h)
	g.Emit(&ir.Instr{
		Name: pfx + "resid2", Op: ir.OpAdd, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
		Ins: []int{dOut.ID, dResid.ID}, Outs: []int{dResidJoined.ID},
		Bytes: bd.actBytes(int64(t)*int64(h), 3),
	})

	// ---- Attention backward ----
	dProjOut := bd.grad(pfx+"d_attn_proj", b, s, h)
	g.Emit(&ir.Instr{
		Name: pfx + "attn_proj", Op: ir.OpMatMul, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
		Ins: []int{dResidJoined.ID, la.wproj.ID}, Outs: []int{dProjOut.ID},
		FLOPs: mmFLOPs(t, h, h),
	})
	dWproj := bd.grad(pfx+"dw_proj", h, h)
	g.Emit(&ir.Instr{
		Name: pfx + "attn_proj", Op: ir.OpMatMul, Grad: ir.GradDW, Phase: ir.Backward, Layer: l,
		Ins: []int{la.ctxOut.ID, dResidJoined.ID}, Outs: []int{dWproj.ID},
		FLOPs: mmFLOPs(h, h, t),
	})
	dProbs := bd.grad(pfx+"d_attn_probs", b, heads, s, s)
	g.Emit(&ir.Instr{
		Name: pfx + "attn_ctx", Op: ir.OpAttnContext, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
		Ins: []int{dProjOut.ID, la.softmaxOut.ID, la.qkvOut.ID}, Outs: []int{dProbs.ID},
		FLOPs: 4 * float64(t) * float64(s) * float64(h),
	})
	dScores := bd.grad(pfx+"d_attn_scores", b, heads, s, s)
	g.Emit(&ir.Instr{
		Name: pfx + "softmax", Op: ir.OpSoftmax, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
		Ins: []int{dProbs.ID, la.softmaxOut.ID}, Outs: []int{dScores.ID},
		Bytes: bd.actBytes(int64(b)*int64(heads)*int64(s)*int64(s), 3),
	})
	dQKV := bd.grad(pfx+"d_qkv", b, s, 3*h)
	g.Emit(&ir.Instr{
		Name: pfx + "attn_scores", Op: ir.OpAttnScores, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
		Ins: []int{dScores.ID, la.qkvOut.ID}, Outs: []int{dQKV.ID},
		FLOPs: 4 * float64(t) * float64(s) * float64(h),
	})
	dLn1Out := bd.grad(pfx+"d_ln1_out", b, s, h)
	g.Emit(&ir.Instr{
		Name: pfx + "qkv", Op: ir.OpMatMul, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
		Ins: []int{dQKV.ID, la.wqkv.ID}, Outs: []int{dLn1Out.ID},
		FLOPs: mmFLOPs(t, h, 3*h),
	})
	dWqkv := bd.grad(pfx+"dw_qkv", h, 3*h)
	g.Emit(&ir.Instr{
		Name: pfx + "qkv", Op: ir.OpMatMul, Grad: ir.GradDW, Phase: ir.Backward, Layer: l,
		Ins: []int{la.ln1Out.ID, dQKV.ID}, Outs: []int{dWqkv.ID},
		FLOPs: mmFLOPs(h, 3*h, t),
	})
	dAttnIn := bd.grad(pfx+"d_attn_in", b, s, h)
	g.Emit(&ir.Instr{
		Name: pfx + "ln1", Op: ir.OpLayerNorm, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
		Ins: []int{dLn1Out.ID, la.ln1In.ID}, Outs: []int{dAttnIn.ID},
		Bytes: bd.actBytes(int64(t)*int64(h), 3),
	})
	dX := bd.grad(pfx+"d_block_in", b, s, h)
	g.Emit(&ir.Instr{
		Name: pfx + "resid1", Op: ir.OpAdd, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
		Ins: []int{dResidJoined.ID, dAttnIn.ID}, Outs: []int{dX.ID},
		Bytes: bd.actBytes(int64(t)*int64(h), 3),
	})

	layerGrads = append(layerGrads, dWproj, dWqkv)
	layerWeights = append(layerWeights, la.wproj, la.wqkv)
	bd.emitSyncAndUpdate(fmt.Sprintf("l%d", l), l, layerGrads, layerWeights)
	if la.moe {
		// Expert weights are expert-parallel: updated locally, no all-reduce.
		bd.emitExpertUpdate(la)
		built.MoE = append(built.MoE, la.h)
	}
	return dX
}

func (bd *builder) emitFFNBackward(la *layerActs, dOut *ir.Tensor) (*ir.Tensor, []*ir.Tensor) {
	g := bd.g
	b, s, h, ffn, t := bd.b, bd.s, bd.h, bd.ffn, bd.t
	l := la.h.Layer
	pfx := fmt.Sprintf("l%d.", l)

	dGelu := bd.grad(pfx+"d_gelu_out", b, s, ffn)
	g.Emit(&ir.Instr{
		Name: pfx + "ffn2", Op: ir.OpMatMul, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
		Ins: []int{dOut.ID, la.wffn2.ID}, Outs: []int{dGelu.ID},
		FLOPs: mmFLOPs(t, ffn, h),
	})
	dWffn2 := bd.grad(pfx+"dw_ffn2", ffn, h)
	g.Emit(&ir.Instr{
		Name: pfx + "ffn2", Op: ir.OpMatMul, Grad: ir.GradDW, Phase: ir.Backward, Layer: l,
		Ins: []int{la.geluOut.ID, dOut.ID}, Outs: []int{dWffn2.ID},
		FLOPs: mmFLOPs(ffn, h, t),
	})
	dFFN1 := bd.grad(pfx+"d_ffn1_out", b, s, ffn)
	g.Emit(&ir.Instr{
		Name: pfx + "gelu", Op: ir.OpGeLU, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
		Ins: []int{dGelu.ID, la.ffn1Out.ID}, Outs: []int{dFFN1.ID},
		Bytes: bd.actBytes(int64(t)*int64(ffn), 3),
	})
	dLn2Out := bd.grad(pfx+"d_ln2_out", b, s, h)
	g.Emit(&ir.Instr{
		Name: pfx + "ffn1", Op: ir.OpMatMul, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
		Ins: []int{dFFN1.ID, la.wffn1.ID}, Outs: []int{dLn2Out.ID},
		FLOPs: mmFLOPs(t, h, ffn),
	})
	dWffn1 := bd.grad(pfx+"dw_ffn1", h, ffn)
	g.Emit(&ir.Instr{
		Name: pfx + "ffn1", Op: ir.OpMatMul, Grad: ir.GradDW, Phase: ir.Backward, Layer: l,
		Ins: []int{la.ln2Out.ID, dFFN1.ID}, Outs: []int{dWffn1.ID},
		FLOPs: mmFLOPs(h, ffn, t),
	})
	dResid := bd.grad(pfx+"d_resid1_ffn", b, s, h)
	g.Emit(&ir.Instr{
		Name: pfx + "ln2", Op: ir.OpLayerNorm, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
		Ins: []int{dLn2Out.ID, la.resid.ID}, Outs: []int{dResid.ID},
		Bytes: bd.actBytes(int64(t)*int64(h), 3),
	})
	return dResid, []*ir.Tensor{dWffn1, dWffn2}
}

func (bd *builder) emitMoEBackward(la *layerActs, dOut *ir.Tensor) (*ir.Tensor, []*ir.Tensor, []*ir.Tensor) {
	g := bd.g
	b, s, h, ffn, t := bd.b, bd.s, bd.h, bd.ffn, bd.t
	e, el, c := bd.experts, bd.localE, bd.capC
	l := la.h.Layer
	pfx := fmt.Sprintf("l%d.", l)
	a2aBytes := int64(e) * int64(c) * int64(h) * bd.dsize

	dComb := bd.grad(pfx+"d_a2a_combine_out", e, c, h)
	la.h.BwdGather = g.Emit(&ir.Instr{
		Name: pfx + "moe_gather", Op: ir.OpMoEGather, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
		Ins: []int{dOut.ID, la.gateMeta.ID}, Outs: []int{dComb.ID},
		Bytes: bd.actBytes(int64(t)*int64(h), 2),
	})

	dExpOut := bd.grad(pfx+"d_experts_out", e, c, h)
	la.h.BwdCombineA2A = g.Emit(&ir.Instr{
		Name: pfx + "a2a_combine", Op: ir.OpAllToAll, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
		Ins: []int{dComb.ID}, Outs: []int{dExpOut.ID},
		Bytes: a2aBytes, CommDevices: bd.gpus,
	})

	dExpIn := bd.grad(pfx+"d_experts_in", e, c, h)
	la.h.BwdExpertsDX = g.Emit(&ir.Instr{
		Name: pfx + "experts", Op: ir.OpExpertFFN, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
		Ins: []int{dExpOut.ID, la.wexp1.ID, la.wexp2.ID, la.dispOut.ID}, Outs: []int{dExpIn.ID},
		FLOPs:   4 * float64(e) * float64(c) * float64(h) * float64(ffn),
		Kernels: 2 * el,
	})
	dWexp1 := bd.grad(pfx+"dw_exp1", el, h, ffn)
	dWexp2 := bd.grad(pfx+"dw_exp2", el, ffn, h)
	la.h.BwdExpertsDW = g.Emit(&ir.Instr{
		Name: pfx + "experts", Op: ir.OpExpertFFN, Grad: ir.GradDW, Phase: ir.Backward, Layer: l,
		Ins: []int{la.dispOut.ID, dExpOut.ID}, Outs: []int{dWexp1.ID, dWexp2.ID},
		FLOPs:   4 * float64(e) * float64(c) * float64(h) * float64(ffn),
		Kernels: 2 * el,
	})
	la.h.bwdExpDW1, la.h.bwdExpDW2 = dWexp1.ID, dWexp2.ID

	dGateOut := bd.grad(pfx+"d_gate_dispatch", e, c, h)
	la.h.BwdDispatchA2A = g.Emit(&ir.Instr{
		Name: pfx + "a2a_dispatch", Op: ir.OpAllToAll, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
		Ins: []int{dExpIn.ID}, Outs: []int{dGateOut.ID},
		Bytes: a2aBytes, CommDevices: bd.gpus,
	})

	dResid := bd.grad(pfx+"d_ln2_out_moe", b, s, h)
	la.h.BwdGate = g.Emit(&ir.Instr{
		Name: pfx + "gate", Op: ir.OpGate, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
		Ins: []int{dGateOut.ID, la.gateMeta.ID, la.wgate.ID}, Outs: []int{dResid.ID},
		FLOPs: mmFLOPs(t, h, e),
		Bytes: bd.actBytes(int64(t)*int64(h), 2),
	})

	dWgate := bd.grad(pfx+"dw_gate", h, e)
	g.Emit(&ir.Instr{
		Name: pfx + "gate", Op: ir.OpGate, Grad: ir.GradDW, Phase: ir.Backward, Layer: l,
		Ins: []int{la.ln2Out.ID, dGateOut.ID, la.gateMeta.ID}, Outs: []int{dWgate.ID},
		FLOPs: mmFLOPs(h, e, t),
	})
	grads := []*ir.Tensor{dWgate}
	weights := []*ir.Tensor{la.wgate}

	dLn2Out := dResid
	if bd.cfg.SharedExpert {
		// Shared-expert backward: its dX chain joins the gate's gradient
		// before layer-norm backward; its dW ops are more material for the
		// weight-gradient scheduling pass.
		ffn := bd.ffn
		dShGelu := bd.grad(pfx+"d_shared_gelu", b, s, ffn)
		g.Emit(&ir.Instr{
			Name: pfx + "shared_ffn2", Op: ir.OpMatMul, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
			Ins: []int{dOut.ID, la.wsh2.ID}, Outs: []int{dShGelu.ID},
			FLOPs: mmFLOPs(t, ffn, h),
		})
		dWsh2 := bd.grad(pfx+"dw_shared2", ffn, h)
		g.Emit(&ir.Instr{
			Name: pfx + "shared_ffn2", Op: ir.OpMatMul, Grad: ir.GradDW, Phase: ir.Backward, Layer: l,
			Ins: []int{la.shGeluOut.ID, dOut.ID}, Outs: []int{dWsh2.ID},
			FLOPs: mmFLOPs(ffn, h, t),
		})
		dSh1 := bd.grad(pfx+"d_shared_ffn1", b, s, ffn)
		g.Emit(&ir.Instr{
			Name: pfx + "shared_gelu", Op: ir.OpGeLU, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
			Ins: []int{dShGelu.ID, la.sh1Out.ID}, Outs: []int{dSh1.ID},
			Bytes: bd.actBytes(int64(t)*int64(ffn), 3),
		})
		dLn2Shared := bd.grad(pfx+"d_ln2_out_shared", b, s, h)
		g.Emit(&ir.Instr{
			Name: pfx + "shared_ffn1", Op: ir.OpMatMul, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
			Ins: []int{dSh1.ID, la.wsh1.ID}, Outs: []int{dLn2Shared.ID},
			FLOPs: mmFLOPs(t, h, ffn),
		})
		dWsh1 := bd.grad(pfx+"dw_shared1", h, ffn)
		g.Emit(&ir.Instr{
			Name: pfx + "shared_ffn1", Op: ir.OpMatMul, Grad: ir.GradDW, Phase: ir.Backward, Layer: l,
			Ins: []int{la.ln2Out.ID, dSh1.ID}, Outs: []int{dWsh1.ID},
			FLOPs: mmFLOPs(h, ffn, t),
		})
		joined := bd.grad(pfx+"d_ln2_out_joined", b, s, h)
		g.Emit(&ir.Instr{
			Name: pfx + "shared_join", Op: ir.OpAdd, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
			Ins: []int{dResid.ID, dLn2Shared.ID}, Outs: []int{joined.ID},
			Bytes: bd.actBytes(int64(t)*int64(h), 3),
		})
		dLn2Out = joined
		grads = append(grads, dWsh1, dWsh2)
		weights = append(weights, la.wsh1, la.wsh2)
	}

	// The gradient w.r.t. ln2 input also flows through layer norm backward.
	dResidLn := bd.grad(pfx+"d_resid1_moe", b, s, h)
	g.Emit(&ir.Instr{
		Name: pfx + "ln2", Op: ir.OpLayerNorm, Grad: ir.GradDX, Phase: ir.Backward, Layer: l,
		Ins: []int{dLn2Out.ID, la.resid.ID}, Outs: []int{dResidLn.ID},
		Bytes: bd.actBytes(int64(t)*int64(h), 3),
	})
	return dResidLn, grads, weights
}

// emitSyncAndUpdate adds the data-parallel gradient all-reduce (when
// enabled) and the SGD update for one bucket of replicated parameters.
func (bd *builder) emitSyncAndUpdate(name string, layer int, grads, weights []*ir.Tensor) {
	var bytes int64
	for _, gr := range grads {
		bytes += gr.Bytes()
	}
	bd.emitSyncAndUpdateSized(name, layer, grads, weights, bytes)
}

// emitSyncAndUpdateSized is emitSyncAndUpdate with an explicit bucket size,
// for tied weights whose gradients accumulate into one tensor.
func (bd *builder) emitSyncAndUpdateSized(name string, layer int, grads, weights []*ir.Tensor, bytes int64) {
	g := bd.g
	ins := make([]int, 0, len(grads))
	for _, gr := range grads {
		ins = append(ins, gr.ID)
	}
	updateIn := ins
	if bd.cfg.SyncGradients && bd.gpus > 1 {
		op, opName := ir.OpAllReduce, ".allreduce"
		if bd.cfg.ZeRO3 {
			// Under sharding each device only keeps its gradient shard.
			op, opName = ir.OpReduceScatter, ".reduce_scatter"
		}
		synced := bd.g.NewTensor(name+".synced_grads", ir.Shape{int(bytes / bd.dsize)}, bd.cfg.DType, ir.Gradient)
		g.Emit(&ir.Instr{
			Name: name + opName, Op: op, Phase: ir.Backward, Layer: layer,
			Ins: ins, Outs: []int{synced.ID},
			Bytes: bytes, CommDevices: bd.gpus,
		})
		updateIn = []int{synced.ID}
	}
	for _, w := range weights {
		updateIn = append(updateIn, w.ID)
	}
	sgdBytes := 4 * bytes // read w, g, momentum; write w (+m)
	if bd.cfg.ZeRO3 && bd.gpus > 1 {
		sgdBytes /= int64(bd.gpus) // each device updates only its shard
	}
	bd.pendingUpdates = append(bd.pendingUpdates, &ir.Instr{
		Name: name + ".sgd", Op: ir.OpSGDUpdate, Phase: ir.Optimizer, Layer: layer,
		Ins: updateIn, Outs: nil,
		Bytes: sgdBytes,
	})
}

func (bd *builder) emitExpertUpdate(la *layerActs) {
	l := la.h.Layer
	dw1 := bd.g.Tensors[la.h.bwdExpDW1]
	dw2 := bd.g.Tensors[la.h.bwdExpDW2]
	bytes := dw1.Bytes() + dw2.Bytes()
	bd.pendingUpdates = append(bd.pendingUpdates, &ir.Instr{
		Name: fmt.Sprintf("l%d.experts.sgd", l), Op: ir.OpSGDUpdate, Phase: ir.Optimizer, Layer: l,
		Ins: []int{dw1.ID, dw2.ID, la.wexp1.ID, la.wexp2.ID}, Outs: nil,
		Bytes: 4 * bytes,
	})
}

// maybeAllGather emits the ZeRO-3 forward all-gather materializing a
// layer's replicated weights from their shards. Without sharding (or on a
// single device) the weights stay graph inputs and nothing is emitted.
func (bd *builder) maybeAllGather(pfx string, layer int, weights []*ir.Tensor) {
	if !bd.cfg.ZeRO3 || bd.gpus <= 1 {
		return
	}
	var bytes int64
	outs := make([]int, 0, len(weights))
	for _, w := range weights {
		bytes += w.Bytes()
		outs = append(outs, w.ID)
	}
	bd.g.Emit(&ir.Instr{
		Name: pfx + "allgather_params", Op: ir.OpAllGather, Phase: ir.Forward, Layer: layer,
		Ins: nil, Outs: outs,
		Bytes: bytes, CommDevices: bd.gpus,
	})
}

// emitLMHead builds the tied language-model head (logits over the
// vocabulary, cross-entropy loss) and its backward, returning the gradient
// entering the last block and the head's weight gradients (accumulated
// into the tied embedding).
func (bd *builder) emitLMHead(tokens, wemb, lnfOut, blocksOut *ir.Tensor) (*ir.Tensor, []*ir.Tensor) {
	g := bd.g
	b, s, h, t, v := bd.b, bd.s, bd.h, bd.t, bd.v
	logits := bd.act("logits", b, s, v)
	g.Emit(&ir.Instr{
		Name: "lm_head", Op: ir.OpMatMul, Phase: ir.Forward, Layer: -1,
		Ins: []int{lnfOut.ID, wemb.ID}, Outs: []int{logits.ID},
		FLOPs: mmFLOPs(t, v, h),
	})
	loss := bd.act("loss", 1)
	g.Emit(&ir.Instr{
		Name: "loss", Op: ir.OpLoss, Phase: ir.Forward, Layer: -1,
		Ins: []int{logits.ID, tokens.ID}, Outs: []int{loss.ID},
		Bytes: bd.actBytes(int64(t)*int64(v), 1),
	})

	dLogits := bd.grad("d_logits", b, s, v)
	g.Emit(&ir.Instr{
		Name: "loss", Op: ir.OpLoss, Grad: ir.GradDX, Phase: ir.Backward, Layer: -1,
		Ins: []int{loss.ID, logits.ID}, Outs: []int{dLogits.ID},
		Bytes: bd.actBytes(int64(t)*int64(v), 2),
	})
	dLnfOut := bd.grad("d_lnf_out", b, s, h)
	g.Emit(&ir.Instr{
		Name: "lm_head", Op: ir.OpMatMul, Grad: ir.GradDX, Phase: ir.Backward, Layer: -1,
		Ins: []int{dLogits.ID, wemb.ID}, Outs: []int{dLnfOut.ID},
		FLOPs: mmFLOPs(t, h, v),
	})
	dWembHead := bd.grad("dw_lm_head", v, h)
	g.Emit(&ir.Instr{
		Name: "lm_head", Op: ir.OpMatMul, Grad: ir.GradDW, Phase: ir.Backward, Layer: -1,
		Ins: []int{lnfOut.ID, dLogits.ID}, Outs: []int{dWembHead.ID},
		FLOPs: mmFLOPs(v, h, t),
	})
	dCur := bd.grad("d_blocks_out", b, s, h)
	g.Emit(&ir.Instr{
		Name: "lnf", Op: ir.OpLayerNorm, Grad: ir.GradDX, Phase: ir.Backward, Layer: -1,
		Ins: []int{dLnfOut.ID, blocksOut.ID}, Outs: []int{dCur.ID},
		Bytes: bd.actBytes(int64(t)*int64(h), 3),
	})
	return dCur, []*ir.Tensor{dWembHead}
}

// emitClassifierHead builds the ViT-style head: pool tokens to [B, H],
// project to NumClasses, cross-entropy; and its backward, returning the
// gradient entering the last block plus the head's weight gradients.
func (bd *builder) emitClassifierHead(tokens, lnfOut, blocksOut *ir.Tensor) (*ir.Tensor, []*ir.Tensor, []*ir.Tensor) {
	g := bd.g
	b, s, h, t := bd.b, bd.s, bd.h, bd.t
	classes := bd.cfg.NumClasses

	pooled := bd.act("pooled", b, h)
	g.Emit(&ir.Instr{
		Name: "pool", Op: ir.OpAdd, Phase: ir.Forward, Layer: -1,
		Ins: []int{lnfOut.ID}, Outs: []int{pooled.ID},
		Bytes: bd.actBytes(int64(t)*int64(h), 1),
	})
	whead := bd.weight("w_cls_head", h, classes)
	logits := bd.act("cls_logits", b, classes)
	g.Emit(&ir.Instr{
		Name: "cls_head", Op: ir.OpMatMul, Phase: ir.Forward, Layer: -1,
		Ins: []int{pooled.ID, whead.ID}, Outs: []int{logits.ID},
		FLOPs: mmFLOPs(b, classes, h),
	})
	loss := bd.act("loss", 1)
	g.Emit(&ir.Instr{
		Name: "loss", Op: ir.OpLoss, Phase: ir.Forward, Layer: -1,
		Ins: []int{logits.ID, tokens.ID}, Outs: []int{loss.ID},
		Bytes: bd.actBytes(int64(b)*int64(classes), 1),
	})

	dLogits := bd.grad("d_cls_logits", b, classes)
	g.Emit(&ir.Instr{
		Name: "loss", Op: ir.OpLoss, Grad: ir.GradDX, Phase: ir.Backward, Layer: -1,
		Ins: []int{loss.ID, logits.ID}, Outs: []int{dLogits.ID},
		Bytes: bd.actBytes(int64(b)*int64(classes), 2),
	})
	dPooled := bd.grad("d_pooled", b, h)
	g.Emit(&ir.Instr{
		Name: "cls_head", Op: ir.OpMatMul, Grad: ir.GradDX, Phase: ir.Backward, Layer: -1,
		Ins: []int{dLogits.ID, whead.ID}, Outs: []int{dPooled.ID},
		FLOPs: mmFLOPs(b, h, classes),
	})
	dWhead := bd.grad("dw_cls_head", h, classes)
	g.Emit(&ir.Instr{
		Name: "cls_head", Op: ir.OpMatMul, Grad: ir.GradDW, Phase: ir.Backward, Layer: -1,
		Ins: []int{pooled.ID, dLogits.ID}, Outs: []int{dWhead.ID},
		FLOPs: mmFLOPs(h, classes, b),
	})
	dLnfOut := bd.grad("d_lnf_out", b, s, h)
	g.Emit(&ir.Instr{
		Name: "pool", Op: ir.OpAdd, Grad: ir.GradDX, Phase: ir.Backward, Layer: -1,
		Ins: []int{dPooled.ID}, Outs: []int{dLnfOut.ID},
		Bytes: bd.actBytes(int64(t)*int64(h), 1),
	})
	dCur := bd.grad("d_blocks_out", b, s, h)
	g.Emit(&ir.Instr{
		Name: "lnf", Op: ir.OpLayerNorm, Grad: ir.GradDX, Phase: ir.Backward, Layer: -1,
		Ins: []int{dLnfOut.ID, blocksOut.ID}, Outs: []int{dCur.ID},
		Bytes: bd.actBytes(int64(t)*int64(h), 3),
	})
	return dCur, []*ir.Tensor{dWhead}, []*ir.Tensor{whead}
}
