// Package planner is an empty shell: plans run as translated, and the
// matcher picks each edge's driving side at run time from the lengths of
// its ordinal vectors. Options, Info and Plan remain only because the
// repository benchmark (bench/, not part of this module's build) calls
// Plan; the next benchmark change deletes the package.
package planner

import (
	"tlc/internal/algebra"
	"tlc/internal/store"
)

// Options is ignored.
type Options struct{}

// Info is empty.
type Info struct{}

// Plan returns root unchanged.
func Plan(root algebra.Op, _ *store.Store, _ Options) (algebra.Op, *Info) { return root, &Info{} }
