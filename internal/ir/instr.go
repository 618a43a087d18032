package ir

import "fmt"

// OpKind identifies the operator an instruction executes.
type OpKind int

const (
	// Compute operators.
	OpEmbedding OpKind = iota
	OpLayerNorm
	OpMatMul // generic dense GEMM (projections, FFN, LM head)
	OpAttnScores
	OpSoftmax
	OpAttnContext
	OpGeLU
	OpAdd // residual / bias add
	OpGate
	OpExpertFFN
	OpMoEGather // restores tokens to original order after the combine a2a
	OpLoss
	OpSGDUpdate

	// Communication operators.
	OpAllToAll
	OpAllReduce
	// OpAllGather materializes sharded parameters before use (ZeRO-3 /
	// FSDP forward); OpReduceScatter replaces the gradient all-reduce
	// under sharding.
	OpAllGather
	OpReduceScatter

	// Pipeline plumbing inserted by the partition pass.
	OpPartitionSplit
	OpReconstruct
)

var opNames = map[OpKind]string{
	OpEmbedding:      "embedding",
	OpLayerNorm:      "layernorm",
	OpMatMul:         "matmul",
	OpAttnScores:     "attn_scores",
	OpSoftmax:        "softmax",
	OpAttnContext:    "attn_context",
	OpGeLU:           "gelu",
	OpAdd:            "add",
	OpGate:           "gate",
	OpExpertFFN:      "experts",
	OpMoEGather:      "moe_gather",
	OpLoss:           "loss",
	OpSGDUpdate:      "sgd_update",
	OpAllToAll:       "all_to_all",
	OpAllReduce:      "all_reduce",
	OpAllGather:      "all_gather",
	OpReduceScatter:  "reduce_scatter",
	OpPartitionSplit: "partition",
	OpReconstruct:    "reconstruct",
}

func (o OpKind) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsComm reports whether the operator executes on the communication stream.
func (o OpKind) IsComm() bool {
	switch o {
	case OpAllToAll, OpAllReduce, OpAllGather, OpReduceScatter:
		return true
	}
	return false
}

// GradKind distinguishes forward ops from the two classes of backward ops
// the paper's scheduling pass cares about (Sec. 2.3 Opportunity 1): dX
// (activation gradient, on the critical chain-rule path) and dW (weight
// gradient, free to schedule).
type GradKind int

const (
	GradNone GradKind = iota
	GradDX
	GradDW
)

func (g GradKind) String() string {
	switch g {
	case GradNone:
		return ""
	case GradDX:
		return "dX"
	case GradDW:
		return "dW"
	}
	return fmt.Sprintf("grad(%d)", int(g))
}

// Phase tags the training phase an instruction belongs to.
type Phase int

const (
	Forward Phase = iota
	Backward
	Optimizer
)

func (p Phase) String() string {
	switch p {
	case Forward:
		return "fwd"
	case Backward:
		return "bwd"
	case Optimizer:
		return "opt"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Instr is one instruction in the IR sequence. It carries no ID: an
// instruction is named by its position in its graph's Instrs, and one
// instruction may sit at different positions in the graphs that share it
// (DESIGN.md §2).
type Instr struct {
	Name  string
	Op    OpKind
	Grad  GradKind
	Phase Phase
	// Layer is the transformer layer index the op belongs to, or -1 for
	// model-level ops (embedding, loss, optimizer).
	Layer int

	// Ins and Outs are tensor IDs.
	Ins  []int
	Outs []int

	// FLOPs is the floating point work of compute-bound ops.
	FLOPs float64
	// Bytes is memory traffic for memory-bound compute ops, or the
	// per-device payload for communication ops.
	Bytes int64

	// CommDevices is the number of participating devices for comm ops.
	CommDevices int

	// Kernels is how many device kernels the op launches (0 means 1).
	// Expert FFNs launch one GEMM per local expert per projection, which
	// lowers per-kernel efficiency and multiplies launch overhead.
	Kernels int

	// Partition bookkeeping, set by the operator partition pass.
	// Group identifies the pipeline this partitioned instruction belongs
	// to (-1 when not partitioned). PartIdx in [0,NumParts) is the
	// micro-partition index. SrcID is the original instruction's position
	// in the graph the partition pass rewrote.
	Group    int
	PartIdx  int
	NumParts int
	SrcID    int
	// PartAxis records the partition axis of the instruction's output
	// (values follow partition.Axis: 0 none, 1 batch, 2 capacity, 3
	// irregular).
	PartAxis int
}

// IsComm reports whether the instruction runs on the communication stream.
func (in *Instr) IsComm() bool { return in.Op.IsComm() }

// IsDW reports whether the instruction is a weight-gradient computation.
func (in *Instr) IsDW() bool { return in.Grad == GradDW }

func (in *Instr) String() string {
	g := ""
	if in.Grad != GradNone {
		g = "." + in.Grad.String()
	}
	return fmt.Sprintf("%s%s(%s)", in.Op, g, in.Name)
}
