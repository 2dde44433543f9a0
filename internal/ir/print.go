package ir

import (
	"bytes"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Print renders the whole module in a stable textual form suitable for
// golden tests and debugging.
func Print(m *Module) string {
	var sb strings.Builder
	WriteModule(&sb, m) // a strings.Builder never fails a write
	return sb.String()
}

// flushAt is the buffered length past which WriteModule hands its
// rendering to the writer.
const flushAt = 4 << 10

// WriteModule writes Print's rendering of m to w a few kilobytes at a
// time, so a consumer such as a hash never holds the whole text. It
// returns the first write error.
func WriteModule(w io.Writer, m *Module) error {
	buf := make([]byte, 0, 2*flushAt)
	flush := func() error {
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}
	buf = append(append(append(buf, "module "...), m.Name...), '\n')
	for _, o := range m.Objects {
		buf = appendObject(buf, o)
		if len(buf) >= flushAt {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	var preds []int
	for _, f := range m.Funcs {
		buf = append(append(buf, "func "...), f.Name...)
		buf = append(strconv.AppendInt(append(buf, '('), int64(f.NParams), 10), " params, "...)
		buf = append(strconv.AppendInt(buf, int64(f.NRegs), 10), " regs)\n"...)
		for _, b := range f.Blocks {
			buf = strconv.AppendInt(append(buf, 'b'), int64(b.ID), 10)
			buf = append(buf, ':')
			if len(b.Preds) > 0 {
				preds = preds[:0]
				for _, p := range b.Preds {
					preds = append(preds, p.ID)
				}
				slices.Sort(preds)
				buf = append(buf, "  ; preds"...)
				for _, id := range preds {
					buf = strconv.AppendInt(append(buf, " b"...), int64(id), 10)
				}
			}
			buf = append(buf, '\n')
			for _, op := range b.Ops {
				buf = append(appendOp(append(buf, "  "...), op), '\n')
			}
			if len(buf) >= flushAt {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	return flush()
}

// appendObject appends an object table line.
func appendObject(buf []byte, o *Object) []byte {
	buf = strconv.AppendInt(append(buf, "object #"...), int64(o.ID), 10)
	buf = append(append(append(buf, ' '), o.Kind.String()...), ' ')
	buf = append(append(buf, o.Name...), ' ')
	buf = strconv.AppendInt(buf, o.Size, 10)
	if o.IsFloat {
		buf = append(buf, " float"...)
	}
	if len(o.Init) > 0 || len(o.FloatInit) > 0 {
		buf = append(buf, " = {"...)
		if o.IsFloat {
			for i, v := range o.FloatInit {
				if i > 0 {
					buf = append(buf, ", "...)
				}
				buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
			}
		} else {
			for i, v := range o.Init {
				if i > 0 {
					buf = append(buf, ", "...)
				}
				buf = strconv.AppendInt(buf, v, 10)
			}
		}
		buf = append(buf, '}')
	}
	return append(buf, '\n')
}

// appendOperand appends the operand in IR syntax. Float immediates always
// carry a '.', exponent, or textual marker so the parser can distinguish
// them from integers.
func appendOperand(buf []byte, o Operand) []byte {
	switch o.Kind {
	case OperReg:
		return strconv.AppendInt(append(buf, 'v'), int64(o.Reg), 10)
	case OperInt:
		return strconv.AppendInt(buf, o.Int, 10)
	case OperFloat:
		start := len(buf)
		buf = strconv.AppendFloat(buf, o.Float, 'g', -1, 64)
		if !bytes.ContainsAny(buf[start:], ".eEnI") { // NaN/Inf carry letters already
			buf = append(buf, ".0"...)
		}
		return buf
	}
	return append(buf, '?')
}

// appendOp appends the op in IR syntax.
func appendOp(buf []byte, op *Op) []byte {
	if op.Dst != NoReg {
		buf = append(strconv.AppendInt(append(buf, 'v'), int64(op.Dst), 10), " = "...)
	}
	buf = append(buf, op.Opcode.String()...)
	switch op.Opcode {
	case OpAddr:
		buf = strconv.AppendInt(append(buf, " @"...), int64(op.Obj.ID), 10) // object table gives the name
	case OpMalloc:
		buf = append(strconv.AppendInt(append(buf, " @"...), int64(op.MallocSite.ID), 10), ',')
	case OpCall:
		buf = append(append(buf, ' '), op.Callee...)
		if len(op.Args) > 0 {
			buf = append(buf, ',')
		}
	}
	if op.Opcode != OpAddr {
		for i, a := range op.Args {
			if i == 0 {
				buf = append(buf, ' ')
			} else {
				buf = append(buf, ", "...)
			}
			buf = appendOperand(buf, a)
		}
	}
	if op.Opcode == OpBr && op.Block != nil && len(op.Block.Succs) > 0 {
		buf = strconv.AppendInt(append(buf, " b"...), int64(op.Block.Succs[0].ID), 10)
	}
	if op.Opcode == OpBrCond && op.Block != nil && len(op.Block.Succs) > 1 {
		buf = strconv.AppendInt(append(buf, ", b"...), int64(op.Block.Succs[0].ID), 10)
		buf = strconv.AppendInt(append(buf, ", b"...), int64(op.Block.Succs[1].ID), 10)
	}
	return buf
}
