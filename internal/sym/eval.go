package sym

import (
	"psketch/internal/ast"
	"psketch/internal/circuit"
	"psketch/internal/desugar"
	"psketch/internal/ir"
	"psketch/internal/token"
	"psketch/internal/types"
)

// locEntry is one possible concrete location of a symbolic l-value:
// the cell range [off, off+n) is meant when cond holds.
type locEntry struct {
	cond circuit.Lit
	off  int
	n    int
}

// BlockPolicy says what a false blocking condition means at a step.
type BlockPolicy int

const (
	// FailWhenBlocked: a blocked step is a deadlock failure (used for
	// single-threaded phases and for deadlock-set steps placed last in
	// a projection — no other thread can make progress, §6).
	FailWhenBlocked BlockPolicy = iota
	// AbortWhenBlocked: the projected trace diverges here; evaluation
	// of the remaining steps is disabled ("return OK" in §6).
	AbortWhenBlocked
)

// StepParts evaluates a step's guard conjunction and blocking condition
// under base, without executing the body. cond is True when the step
// has no blocking condition.
func (e *Evaluator) StepParts(seq *ir.Seq, step *ir.Step, base circuit.Lit) (g, cond circuit.Lit) {
	g = base
	for _, gexpr := range step.Guards {
		gv := e.evalExpr(seq, gexpr, g)
		g = e.B.And(g, gv.bit(e.B))
	}
	cond = circuit.True
	if step.Cond != nil {
		cond = e.evalExpr(seq, step.Cond, g).bit(e.B)
	}
	return g, cond
}

// ExecStepBody runs the step's body under guard g.
func (e *Evaluator) ExecStepBody(seq *ir.Seq, step *ir.Step, g circuit.Lit) {
	for _, st := range step.Body {
		e.execStmt(seq, st, g)
	}
}

// FailIf registers an explicit failure condition.
func (e *Evaluator) FailIf(cond circuit.Lit) {
	e.Fail = e.B.Or(e.Fail, cond)
}

// RunStep symbolically executes one step of seq under the activity
// literal active, returning the updated activity.
func (e *Evaluator) RunStep(seq *ir.Seq, step *ir.Step, active circuit.Lit, policy BlockPolicy) circuit.Lit {
	g, c := e.StepParts(seq, step, active)
	if step.Cond != nil {
		blocked := e.B.And(g, c.Not())
		switch policy {
		case FailWhenBlocked:
			e.fail(blocked, circuit.True)
		case AbortWhenBlocked:
			active = e.B.And(active, blocked.Not())
		}
		g = e.B.And(g, c)
	}
	e.ExecStepBody(seq, step, g)
	return active
}

// RunSeq executes a whole sequence under active (single-threaded
// semantics: a blocked step is a deadlock).
func (e *Evaluator) RunSeq(seq *ir.Seq, active circuit.Lit) {
	for _, step := range seq.Steps {
		e.RunStep(seq, step, active, FailWhenBlocked)
	}
}

// execStmt executes a body statement under guard g.
func (e *Evaluator) execStmt(seq *ir.Seq, s ast.Stmt, g circuit.Lit) {
	switch x := s.(type) {
	case *ast.Block:
		for _, st := range x.Stmts {
			e.execStmt(seq, st, g)
		}
	case *ast.AssignStmt:
		e.assign(seq, x.LHS, x.RHS, g)
	case *ast.AssertStmt:
		c := e.evalExpr(seq, x.Cond, g)
		e.fail(g, c.bit(e.B).Not())
	case *ast.ExprStmt:
		e.evalExpr(seq, x.X, g)
	case *ast.IfStmt:
		c := e.evalExpr(seq, x.Cond, g).bit(e.B)
		e.execStmt(seq, x.Then, e.B.And(g, c))
		if x.Else != nil {
			e.execStmt(seq, x.Else, e.B.And(g, c.Not()))
		}
	default:
		e.errorf("sym: unexpected statement %T", s)
	}
}

// resolveLoc resolves an l-value under guard g into its possible cell
// ranges, accumulating memory-safety failures guarded by g.
func (e *Evaluator) resolveLoc(seq *ir.Seq, lv ast.Expr, g circuit.Lit) []locEntry {
	switch x := lv.(type) {
	case *ast.Ident:
		if i := seq.Local(x.Name); i >= 0 {
			return []locEntry{{circuit.True, e.L.LocalOff(seq, i), cells(seq.Locals[i].Type)}}
		}
		if i := e.P.Global(x.Name); i >= 0 {
			return []locEntry{{circuit.True, e.L.GlobalOff(i), cells(e.P.Globals[i].Type)}}
		}
		e.errorf("sym: unknown variable %s", x.Name)
		return nil
	case *ast.FieldExpr:
		ref := e.evalExpr(seq, x.X, g)
		sn, err := e.P.StructOf(seq, x)
		if err != nil {
			e.errorf("sym: %v", err)
			return nil
		}
		arena := e.P.Arenas[sn]
		rw := circuit.ZextW(ref.w, refWidth(arena))
		// Null dereference fails whenever this location is touched.
		isNull := e.B.IsZeroW(rw)
		e.fail(g, isNull)
		var out []locEntry
		for slot := 1; slot <= arena; slot++ {
			off, err := e.L.FieldOff(sn, x.Name, int32(slot))
			if err != nil {
				e.errorf("sym: %v", err)
				return nil
			}
			eq := e.B.EqW(rw, circuit.ConstW(len(rw), int64(slot)))
			if ok, v := eq.IsConst(); ok && !v {
				continue
			}
			out = append(out, locEntry{eq, off, 1})
		}
		return out
	case *ast.IndexExpr:
		base := e.resolveLoc(seq, x.X, g)
		idx := e.evalExpr(seq, x.Index, g)
		return e.indexInto(base, idx, 1, g, x.P)
	case *ast.SliceExpr:
		base := e.resolveLoc(seq, x.X, g)
		idx := e.evalExpr(seq, x.Start, g)
		return e.indexInto(base, idx, x.Len, g, x.P)
	case *ast.Regen:
		meta := e.P.Sketch.Holes[x.ID]
		idx := e.Holes[x.ID]
		var out []locEntry
		for i, ch := range x.Choices {
			sel := e.choiceLit(idx, i, meta.Choices)
			if ok, v := sel.IsConst(); ok && !v {
				continue
			}
			sub := e.resolveLoc(seq, ch, e.B.And(g, sel))
			for _, en := range sub {
				out = append(out, locEntry{e.B.And(sel, en.cond), en.off, en.n})
			}
		}
		return out
	}
	e.errorf("sym: not a location: %T", lv)
	return nil
}

// choiceLit builds the literal "generator index == i" (the last choice
// also absorbs out-of-range indices so a candidate is always total).
func (e *Evaluator) choiceLit(idx circuit.Word, i, k int) circuit.Lit {
	if k == 1 {
		return circuit.True
	}
	return e.B.EqW(idx, circuit.ConstW(len(idx), int64(i)))
}

// indexInto composes a base location with a (possibly symbolic) index,
// producing one entry per in-range value and failing out of range.
func (e *Evaluator) indexInto(base []locEntry, idx val, n int, g circuit.Lit, pos token.Pos) []locEntry {
	var out []locEntry
	for _, b := range base {
		iw := e.intVal(idx)
		inRange := circuit.False
		for i := 0; i+n <= b.n; i++ {
			eq := e.B.EqW(iw, circuit.ConstW(e.W, int64(i)))
			if ok, v := eq.IsConst(); ok && !v {
				continue
			}
			inRange = e.B.Or(inRange, eq)
			out = append(out, locEntry{e.B.And(b.cond, eq), b.off + i, n})
		}
		e.fail(e.B.And(g, b.cond), inRange.Not())
	}
	return out
}

// readLoc muxes a scalar read over the location entries.
func (e *Evaluator) readLoc(entries []locEntry, width int, signed bool) val {
	out := circuit.ConstW(width, 0)
	for _, en := range entries {
		w := e.cells[en.off]
		if signed {
			w = circuit.SextW(w, width)
		} else {
			w = circuit.ZextW(w, width)
		}
		out = e.B.MuxW(en.cond, w, out)
	}
	return val{w: out, signed: signed}
}

// writeLoc writes a scalar under guard g across the location entries.
func (e *Evaluator) writeLoc(entries []locEntry, v val, g circuit.Lit) {
	for _, en := range entries {
		ci := e.info[en.off]
		nw := e.coerce(v.w, ci)
		sel := e.B.And(g, en.cond)
		e.setCell(en.off, e.B.MuxW(sel, nw, e.cells[en.off]))
	}
}

// locInfo inspects the first entry for width/signedness (all entries of
// one l-value share a type).
func (e *Evaluator) locInfo(entries []locEntry) cellInfo {
	if len(entries) == 0 {
		return cellInfo{width: 1}
	}
	return e.info[entries[0].off]
}

// assign stores rhs into lhs under guard g (arrays, broadcasts,
// bit-array literals and holes included).
func (e *Evaluator) assign(seq *ir.Seq, lhs, rhs ast.Expr, g circuit.Lit) {
	dst := e.resolveLoc(seq, lhs, g)
	if len(dst) == 0 {
		return
	}
	n := dst[0].n
	if n == 1 {
		v := e.evalExpr(seq, rhs, g)
		e.writeLoc(dst, v, g)
		return
	}
	// Array assignment.
	cellVals := make([]val, n)
	switch r := rhs.(type) {
	case *ast.IntLit:
		for i := range cellVals {
			cellVals[i] = val{w: circuit.ConstW(e.W, r.Val), signed: true}
		}
	case *ast.BoolLit:
		b := circuit.False
		if r.Val {
			b = circuit.True
		}
		for i := range cellVals {
			cellVals[i] = e.boolVal(b)
		}
	case *ast.NullLit:
		for i := range cellVals {
			cellVals[i] = val{w: circuit.ConstW(1, 0)}
		}
	case *ast.BitsLit:
		for i := range cellVals {
			b := circuit.False
			if i < len(r.Text) && r.Text[i] == '1' {
				b = circuit.True
			}
			cellVals[i] = e.boolVal(b)
		}
	case *ast.Hole:
		bits := e.Holes[r.ID]
		for i := range cellVals {
			b := circuit.False
			if i < len(bits) {
				b = bits[i]
			}
			cellVals[i] = e.boolVal(b)
		}
	case *ast.Regen:
		meta := e.P.Sketch.Holes[r.ID]
		idx := e.Holes[r.ID]
		for i, ch := range r.Choices {
			sel := e.choiceLit(idx, i, meta.Choices)
			e.assign(seq, lhs, ch, e.B.And(g, sel))
		}
		return
	default:
		src := e.resolveLoc(seq, rhs, g)
		if len(src) == 0 {
			return
		}
		if src[0].n != n {
			e.errorf("sym: array length mismatch in assignment")
			return
		}
		for i := 0; i < n; i++ {
			sub := make([]locEntry, len(src))
			for j, en := range src {
				sub[j] = locEntry{en.cond, en.off + i, 1}
			}
			ci := e.locInfo(sub)
			cellVals[i] = e.readLoc(sub, ci.width, ci.signed)
		}
	}
	for i := 0; i < n; i++ {
		sub := make([]locEntry, len(dst))
		for j, en := range dst {
			sub[j] = locEntry{en.cond, en.off + i, 1}
		}
		e.writeLoc(sub, cellVals[i], g)
	}
}

// evalExpr evaluates a scalar expression under guard g. Side effects
// (builtins, allocation) apply under g.
func (e *Evaluator) evalExpr(seq *ir.Seq, x ast.Expr, g circuit.Lit) val {
	switch n := x.(type) {
	case *ast.IntLit:
		return val{w: circuit.ConstW(e.W, n.Val), signed: true}
	case *ast.BoolLit:
		return e.boolVal(circuit.Const(n.Val))
	case *ast.NullLit:
		return val{w: circuit.ConstW(1, 0)}
	case *ast.Ident:
		if n.Name == ir.TidVar {
			return val{w: circuit.ConstW(e.W, int64(seq.Tid)), signed: true}
		}
		entries := e.resolveLoc(seq, n, g)
		ci := e.locInfo(entries)
		return e.readLoc(entries, ci.width, ci.signed)
	case *ast.FieldExpr, *ast.IndexExpr:
		entries := e.resolveLoc(seq, x, g)
		ci := e.locInfo(entries)
		return e.readLoc(entries, ci.width, ci.signed)
	case *ast.Hole:
		meta := e.P.Sketch.Holes[n.ID]
		w := e.Holes[n.ID]
		if meta.Kind == desugar.HoleBool {
			return e.boolVal(w[0])
		}
		return val{w: circuit.ZextW(w, e.W), signed: true}
	case *ast.Regen:
		meta := e.P.Sketch.Holes[n.ID]
		idx := e.Holes[n.ID]
		var out val
		for i, ch := range n.Choices {
			sel := e.choiceLit(idx, i, meta.Choices)
			if ok, v := sel.IsConst(); ok && !v {
				continue
			}
			cv := e.evalExpr(seq, ch, e.B.And(g, sel))
			if out.w == nil {
				out = cv
				continue
			}
			a, bb, signed := e.align(out, cv)
			out = val{w: e.B.MuxW(sel, bb, a), signed: signed}
		}
		if out.w == nil {
			return val{w: circuit.ConstW(1, 0)}
		}
		return out
	case *ast.Unary:
		v := e.evalExpr(seq, n.X, g)
		switch n.Op {
		case token.NOT:
			return e.boolVal(v.bit(e.B).Not())
		case token.SUB:
			return val{w: e.B.NegW(e.intVal(v)), signed: true}
		}
	case *ast.Binary:
		return e.evalBinary(seq, n, g)
	case *ast.CastExpr:
		return e.evalCast(seq, n, g)
	case *ast.CallExpr:
		return e.evalBuiltin(seq, n, g)
	case *ast.NewExpr:
		return e.evalNew(seq, n, g)
	}
	e.errorf("sym: cannot evaluate %T", x)
	return val{w: circuit.ConstW(1, 0)}
}

func (e *Evaluator) evalBinary(seq *ir.Seq, n *ast.Binary, g circuit.Lit) val {
	switch n.Op {
	case token.LAND:
		l := e.evalExpr(seq, n.X, g).bit(e.B)
		r := e.evalExpr(seq, n.Y, e.B.And(g, l)).bit(e.B)
		return e.boolVal(e.B.And(l, r))
	case token.LOR:
		l := e.evalExpr(seq, n.X, g).bit(e.B)
		r := e.evalExpr(seq, n.Y, e.B.And(g, l.Not())).bit(e.B)
		return e.boolVal(e.B.Or(l, r))
	}
	lv := e.evalExpr(seq, n.X, g)
	rv := e.evalExpr(seq, n.Y, g)
	switch n.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO, token.REM:
		a, b := e.intVal(lv), e.intVal(rv)
		switch n.Op {
		case token.ADD:
			return val{w: e.B.AddW(a, b), signed: true}
		case token.SUB:
			return val{w: e.B.SubW(a, b), signed: true}
		case token.MUL:
			return val{w: e.B.MulW(a, b), signed: true}
		default:
			return e.divmod(a, b, n.Op == token.QUO, g)
		}
	case token.EQ, token.NEQ:
		a, b, _ := e.align(lv, rv)
		eq := e.B.EqW(a, b)
		if n.Op == token.NEQ {
			eq = eq.Not()
		}
		return e.boolVal(eq)
	case token.LT, token.LEQ, token.GT, token.GEQ:
		a, b := e.intVal(lv), e.intVal(rv)
		var r circuit.Lit
		switch n.Op {
		case token.LT:
			r = e.B.LtS(a, b)
		case token.GEQ:
			r = e.B.LtS(a, b).Not()
		case token.GT:
			r = e.B.LtS(b, a)
		default:
			r = e.B.LtS(b, a).Not()
		}
		return e.boolVal(r)
	}
	e.errorf("sym: bad binary operator")
	return val{w: circuit.ConstW(1, 0)}
}

// divmod implements Go-style truncated signed division with a guarded
// division-by-zero failure.
func (e *Evaluator) divmod(a, b circuit.Word, isDiv bool, g circuit.Lit) val {
	bz := e.B.IsZeroW(b)
	e.fail(g, bz)
	sa, sb := a[len(a)-1], b[len(b)-1]
	absA := e.B.MuxW(sa, e.B.NegW(a), a)
	absB := e.B.MuxW(sb, e.B.NegW(b), b)
	q, r := e.B.DivModU(absA, absB)
	if isDiv {
		neg := e.B.Xor(sa, sb)
		return val{w: e.B.MuxW(neg, e.B.NegW(q), q), signed: true}
	}
	return val{w: e.B.MuxW(sa, e.B.NegW(r), r), signed: true}
}

func (e *Evaluator) evalCast(seq *ir.Seq, n *ast.CastExpr, g circuit.Lit) val {
	switch inner := n.X.(type) {
	case *ast.SliceExpr, *ast.Ident, *ast.IndexExpr, *ast.FieldExpr:
		entries := e.resolveLoc(seq, inner, g)
		if len(entries) == 0 {
			return val{w: circuit.ConstW(e.W, 0), signed: true}
		}
		width := entries[0].n
		out := circuit.ConstW(e.W, 0)
		for _, en := range entries {
			w := make(circuit.Word, width)
			for i := 0; i < width; i++ {
				w[i] = e.cells[en.off+i][0]
			}
			out = e.B.MuxW(en.cond, circuit.ZextW(w, e.W), out)
		}
		return val{w: out, signed: true}
	default:
		v := e.evalExpr(seq, n.X, g)
		return val{w: circuit.ZextW(circuit.Word{v.bit(e.B)}, e.W), signed: true}
	}
}

func (e *Evaluator) evalBuiltin(seq *ir.Seq, n *ast.CallExpr, g circuit.Lit) val {
	loc := e.resolveLoc(seq, n.Args[0], g)
	ci := e.locInfo(loc)
	old := e.readLoc(loc, ci.width, ci.signed)
	switch n.Fun {
	case "AtomicSwap":
		v := e.evalExpr(seq, n.Args[1], g)
		e.writeLoc(loc, v, g)
		return old
	case "CAS":
		oldv := e.evalExpr(seq, n.Args[1], g)
		newv := e.evalExpr(seq, n.Args[2], g)
		a, b, _ := e.align(old, oldv)
		eq := e.B.EqW(a, b)
		e.writeLoc(loc, newv, e.B.And(g, eq))
		return e.boolVal(eq)
	case "AtomicReadAndDecr":
		nv := e.B.SubW(e.intVal(old), circuit.ConstW(e.W, 1))
		e.writeLoc(loc, val{w: nv, signed: true}, g)
		return old
	case "AtomicReadAndIncr":
		nv := e.B.AddW(e.intVal(old), circuit.ConstW(e.W, 1))
		e.writeLoc(loc, val{w: nv, signed: true}, g)
		return old
	}
	e.errorf("sym: unknown builtin %s", n.Fun)
	return val{w: circuit.ConstW(1, 0)}
}

func (e *Evaluator) evalNew(seq *ir.Seq, n *ast.NewExpr, g circuit.Lit) val {
	site := e.P.Sites[n.Site]
	slot := site.Slot
	si := e.P.Sketch.Info.Structs[n.Type]
	ctor := si.CtorFields()
	argOf := map[int]ast.Expr{}
	for i, fi := range ctor {
		argOf[fi] = n.Args[i]
	}
	for fi, fld := range si.Fields {
		var v val
		if a, ok := argOf[fi]; ok {
			v = e.evalExpr(seq, a, g)
		} else if fld.Default != nil {
			v = e.evalExpr(seq, fld.Default, g)
		} else {
			v = val{w: circuit.ConstW(1, 0)}
		}
		off, err := e.L.FieldOff(n.Type, fld.Name, int32(slot))
		if err != nil {
			e.errorf("sym: %v", err)
			return val{w: circuit.ConstW(1, 0)}
		}
		e.writeLoc([]locEntry{{circuit.True, off, 1}}, v, g)
	}
	w := refWidth(e.P.Arenas[n.Type])
	return val{w: circuit.ConstW(w, int64(slot))}
}

// EvalConstraint evaluates a synthesis-time side constraint (an
// expression over holes and literals only).
func (e *Evaluator) EvalConstraint(c ast.Expr) circuit.Lit {
	v := e.evalExpr(nil, c, circuit.True)
	return v.bit(e.B)
}

func cells(t types.Type) int {
	if t.IsArray() {
		return t.Len
	}
	return 1
}
