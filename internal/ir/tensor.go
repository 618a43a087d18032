// Package ir defines the compiler intermediate representation Lancet
// operates on: tensors, instructions, and an SSA-style instruction-sequence
// graph with dependency analysis (paper Sec. 3-4). The model IR is "a
// sequence of instructions I = [I1..IN]; each instruction is characterized by
// its input tensors x, output tensors y, and operator f". DESIGN.md §2
// describes the IR and its dependency tables.
package ir

import (
	"fmt"
	"strings"
)

// DType is a tensor element type.
type DType int

const (
	F16 DType = iota
	F32
	I32
)

// Size returns the element size in bytes.
func (d DType) Size() int64 {
	switch d {
	case F16:
		return 2
	case F32, I32:
		return 4
	}
	panic(fmt.Sprintf("ir: unknown dtype %d", int(d)))
}

func (d DType) String() string {
	switch d {
	case F16:
		return "f16"
	case F32:
		return "f32"
	case I32:
		return "i32"
	}
	return fmt.Sprintf("dtype(%d)", int(d))
}

// Shape is a tensor shape. By convention activation tensors carry the batch
// dimension at axis 0 ([B, S, H]) and MoE dispatch buffers are [E, C, H].
type Shape []int

// NumElems is the number of elements, or 0 for an empty shape.
func (s Shape) NumElems() int64 {
	if len(s) == 0 {
		return 0
	}
	n := int64(1)
	for _, d := range s {
		n *= int64(d)
	}
	return n
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Equal reports whether two shapes are identical.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprint(d)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// TensorKind classifies tensors for dependency analysis and memory
// accounting.
type TensorKind int

const (
	// Activation tensors flow forward between operators.
	Activation TensorKind = iota
	// Weight tensors are model parameters; they are never partitioned by
	// the pipeline pass.
	Weight
	// Gradient tensors are produced during the backward pass.
	Gradient
	// Meta tensors carry routing metadata (expert assignments, capacity
	// counters) produced by gating functions.
	Meta
)

func (k TensorKind) String() string {
	switch k {
	case Activation:
		return "act"
	case Weight:
		return "weight"
	case Gradient:
		return "grad"
	case Meta:
		return "meta"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Tensor is a value in the IR. Tensors are in SSA form: each is produced by
// exactly one instruction (or is a graph input such as a weight).
type Tensor struct {
	ID    int
	Name  string
	Shape Shape
	DType DType
	Kind  TensorKind
}

// Bytes is the storage footprint of the tensor.
func (t *Tensor) Bytes() int64 { return t.Shape.NumElems() * t.DType.Size() }

func (t *Tensor) String() string {
	return fmt.Sprintf("%%%d:%s%s:%s", t.ID, t.Name, t.Shape, t.DType)
}
