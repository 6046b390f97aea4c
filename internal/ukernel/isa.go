// Package ukernel implements a small register-machine VM with an
// assembler, a scoreboarded timing model, a two-bit branch predictor and
// a set-associative cache hierarchy. It plays two roles in the
// reproduction:
//
//   - it *is* the hand-crafted micro-benchmark substrate of §2.4 and §3.1:
//     the four-instruction FP loop of Figure 5 runs on it in x87 or SSE
//     mode, with finite or non-finite operands, regenerating Table 1;
//   - its architecturally exact event counts are the independent oracle
//     standing in for Pin's inscount2 in the §2.4 validation ("The number
//     of instructions we obtain is on average within 0.06 % of Pin's
//     count").
package ukernel

import "fmt"

// Op is an instruction opcode.
type Op int

// The ISA. FAddX87 models the x87 stack adds of Figure 5's left column,
// whose non-finite operands trigger micro-code assists on Intel parts;
// FAdd models the SSE scalar adds of the right column, which never
// assist. Integer ops, loads/stores, compares and branches complete the
// mix needed by the validation kernels.
const (
	OpInvalid Op = iota
	OpMovI       // movi rd, imm        rd = imm
	OpFMovI      // fmovi fd, fimm      fd = fimm (accepts inf/nan)
	OpIAdd       // iadd rd, rs, op2    rd = rs + op2 (reg or imm)
	OpIMul       // imul rd, rs, op2
	OpFAdd       // fadd fd, fs1, fs2   SSE-style
	OpFAddX87    // faddx fd, fs1, fs2  x87-style (assist on non-finite)
	OpFMul       // fmul fd, fs1, fs2
	OpLoad       // load rd, [rs]
	OpLoadF      // loadf fd, [rs]
	OpStore      // store [rd], rs
	OpCmp        // cmp rs1, op2        sets flags
	OpJmp        // jmp label
	OpJne        // jne label
	OpJe         // je label
	OpJlt        // jlt label
	OpJge        // jge label
	OpNop        // nop
	OpHalt       // halt
)

var opNames = map[Op]string{
	OpMovI: "movi", OpFMovI: "fmovi", OpIAdd: "iadd", OpIMul: "imul",
	OpFAdd: "fadd", OpFAddX87: "faddx", OpFMul: "fmul",
	OpLoad: "load", OpLoadF: "loadf", OpStore: "store",
	OpCmp: "cmp", OpJmp: "jmp", OpJne: "jne", OpJe: "je",
	OpJlt: "jlt", OpJge: "jge", OpNop: "nop", OpHalt: "halt",
}

func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// NumRegs is the number of integer and float registers each.
const NumRegs = 16

// Instr is one decoded instruction.
type Instr struct {
	Op         Op
	Dst        int // destination register index (int or float bank by op)
	Src1, Src2 int
	// UseImm selects the immediate as the second operand for
	// iadd/imul/cmp.
	UseImm bool
	Imm    int64
	FImm   float64
	Target int // branch target (instruction index)
}

// Program is an assembled instruction sequence.
type Program struct {
	Instrs []Instr
	Labels map[string]int
	Source string
}

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.Instrs) }
