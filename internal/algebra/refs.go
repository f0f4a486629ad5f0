package algebra

import "tlc/internal/pattern"

// ClassUser is implemented by operators that read logical classes of their
// input trees. ClassRefs returns the referenced labels (definitions such as
// an Aggregate's NewLCL or a Select's fresh pattern labels are excluded).
// The rewriter uses it to locate the operators that "use tree(B)" in the
// Section 4 rewrite rules.
type ClassUser interface {
	ClassRefs() []int
}

// ClassRemapper is implemented by operators whose class references can be
// redirected. The rewriter applies it after merging redundant pattern
// branches, pointing consumers of the eliminated classes at the surviving
// ones.
type ClassRemapper interface {
	RemapClasses(m map[int]int)
}

func remap(m map[int]int, lcl int) int {
	if n, ok := m[lcl]; ok {
		return n
	}
	return lcl
}

// ClassRefs implements ClassUser.
func (f *Filter) ClassRefs() []int { return []int{f.LCL} }

// RemapClasses implements ClassRemapper.
func (f *Filter) RemapClasses(m map[int]int) { f.LCL = remap(m, f.LCL) }

// ClassRefs implements ClassUser.
func (f *FilterCompare) ClassRefs() []int { return []int{f.LLCL, f.RLCL} }

// RemapClasses implements ClassRemapper.
func (f *FilterCompare) RemapClasses(m map[int]int) {
	f.LLCL = remap(m, f.LLCL)
	f.RLCL = remap(m, f.RLCL)
}

// ClassRefs implements ClassUser.
func (f *DisjFilter) ClassRefs() []int {
	out := make([]int, len(f.Branches))
	for i, b := range f.Branches {
		out[i] = b.LCL
	}
	return out
}

// RemapClasses implements ClassRemapper.
func (f *DisjFilter) RemapClasses(m map[int]int) {
	for i := range f.Branches {
		f.Branches[i].LCL = remap(m, f.Branches[i].LCL)
	}
}

// ClassRefs implements ClassUser.
func (j *Join) ClassRefs() []int {
	if j.Pred == nil {
		return nil
	}
	return []int{j.Pred.LeftLCL, j.Pred.RightLCL}
}

// RemapClasses implements ClassRemapper.
func (j *Join) RemapClasses(m map[int]int) {
	if j.Pred == nil {
		return
	}
	j.Pred.LeftLCL = remap(m, j.Pred.LeftLCL)
	j.Pred.RightLCL = remap(m, j.Pred.RightLCL)
}

// ClassRefs implements ClassUser.
func (p *Project) ClassRefs() []int { return append([]int(nil), p.Keep...) }

// RemapClasses implements ClassRemapper.
func (p *Project) RemapClasses(m map[int]int) {
	for i := range p.Keep {
		p.Keep[i] = remap(m, p.Keep[i])
	}
}

// ClassRefs implements ClassUser.
func (d *DupElim) ClassRefs() []int { return append([]int(nil), d.On...) }

// RemapClasses implements ClassRemapper.
func (d *DupElim) RemapClasses(m map[int]int) {
	for i := range d.On {
		d.On[i] = remap(m, d.On[i])
	}
}

// ClassRefs implements ClassUser.
func (a *Aggregate) ClassRefs() []int { return []int{a.LCL} }

// RemapClasses implements ClassRemapper.
func (a *Aggregate) RemapClasses(m map[int]int) { a.LCL = remap(m, a.LCL) }

// ClassRefs implements ClassUser.
func (s *Sort) ClassRefs() []int {
	out := make([]int, len(s.Keys))
	for i, k := range s.Keys {
		out[i] = k.LCL
	}
	return out
}

// RemapClasses implements ClassRemapper.
func (s *Sort) RemapClasses(m map[int]int) {
	for i := range s.Keys {
		s.Keys[i].LCL = remap(m, s.Keys[i].LCL)
	}
}

// ClassRefs implements ClassUser.
func (f *Flatten) ClassRefs() []int { return []int{f.PLCL, f.CLCL} }

// RemapClasses implements ClassRemapper.
func (f *Flatten) RemapClasses(m map[int]int) {
	f.PLCL = remap(m, f.PLCL)
	f.CLCL = remap(m, f.CLCL)
}

// ClassRefs implements ClassUser.
func (s *Shadow) ClassRefs() []int { return []int{s.PLCL, s.CLCL} }

// RemapClasses implements ClassRemapper.
func (s *Shadow) RemapClasses(m map[int]int) {
	s.PLCL = remap(m, s.PLCL)
	s.CLCL = remap(m, s.CLCL)
}

// ClassRefs implements ClassUser.
func (i *Illuminate) ClassRefs() []int { return []int{i.LCL} }

// RemapClasses implements ClassRemapper.
func (i *Illuminate) RemapClasses(m map[int]int) { i.LCL = remap(m, i.LCL) }

// ClassRefs implements ClassUser: an extension Select reads its anchor
// class; a document Select reads nothing.
func (s *Select) ClassRefs() []int {
	if s.APT != nil && s.APT.Root != nil && s.APT.Root.Kind == pattern.TestLC {
		return []int{s.APT.Root.InClass}
	}
	return nil
}

// RemapClasses implements ClassRemapper for the anchor reference.
func (s *Select) RemapClasses(m map[int]int) {
	if s.APT != nil && s.APT.Root != nil && s.APT.Root.Kind == pattern.TestLC {
		s.APT.Root.InClass = remap(m, s.APT.Root.InClass)
	}
}

// ClassRefs implements ClassUser: a Construct reads every class its
// pattern references.
func (c *Construct) ClassRefs() []int {
	var out []int
	var walk func(n *pattern.ConstructNode)
	walk = func(n *pattern.ConstructNode) {
		if n.FromLCL > 0 {
			out = append(out, n.FromLCL)
		}
		for _, a := range n.Attrs {
			if a.FromLCL > 0 {
				out = append(out, a.FromLCL)
			}
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	if c.Pattern != nil {
		walk(c.Pattern)
	}
	return out
}

// RemapClasses implements ClassRemapper over the construct pattern.
func (c *Construct) RemapClasses(m map[int]int) {
	var walk func(n *pattern.ConstructNode)
	walk = func(n *pattern.ConstructNode) {
		if n.FromLCL > 0 {
			n.FromLCL = remap(m, n.FromLCL)
		}
		for i := range n.Attrs {
			if n.Attrs[i].FromLCL > 0 {
				n.Attrs[i].FromLCL = remap(m, n.Attrs[i].FromLCL)
			}
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	if c.Pattern != nil {
		walk(c.Pattern)
	}
}

// RefsOf returns the class references of op, or nil when it has none.
func RefsOf(op Op) []int {
	if u, ok := op.(ClassUser); ok {
		return u.ClassRefs()
	}
	return nil
}

// RemapOf applies a class remapping to op when supported.
func RemapOf(op Op, m map[int]int) {
	if r, ok := op.(ClassRemapper); ok {
		r.RemapClasses(m)
	}
}
