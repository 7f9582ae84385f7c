package unionfind

// Growable is a growable min-root disjoint-set forest: the root of every
// set is its smallest member, so canonical cluster listings fall out of
// the structure with no extra bookkeeping. Unlike UF it is sized lazily —
// Grow extends the universe with singletons — which fits callers whose
// universe grows over time: the incremental engine's id space grows with
// every Add, and the shard router's global id space grows with every
// routed record.
type Growable struct {
	parent []int
}

// Grow extends the forest with singletons up to n elements.
func (u *Growable) Grow(n int) {
	for len(u.parent) < n {
		u.parent = append(u.parent, len(u.parent))
	}
}

// Len returns the current universe size.
func (u *Growable) Len() int { return len(u.parent) }

// Find returns the canonical (minimum) representative of x's set.
func (u *Growable) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// Union merges the sets containing a and b, keeping the smaller root.
func (u *Growable) Union(a, b int) {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return
	}
	if ra < rb {
		u.parent[rb] = ra
	} else {
		u.parent[ra] = rb
	}
}

// Same reports whether a and b are in the same set.
func (u *Growable) Same(a, b int) bool { return u.Find(a) == u.Find(b) }

// Clone returns an independent copy of the forest.
func (u *Growable) Clone() *Growable {
	return &Growable{parent: append([]int(nil), u.parent...)}
}

// Sets returns the partition of 0..n-1 in canonical form: members
// ascending within each set, sets ordered by their smallest member. The
// sets are carved, capacity-clamped, out of one backing array, so the
// listing costs four allocations whatever the number of sets.
func (u *Growable) Sets(n int) [][]int {
	// Pass 1: every element's root, and each set's size at its root.
	root := make([]int, n)
	size := make([]int, n)
	sets := 0
	for i := range root {
		r := u.Find(i)
		root[i] = r
		if size[r] == 0 {
			sets++
		}
		size[r]++
	}
	// Pass 2: min-root makes every root its set's first member, so an
	// ascending scan meets a set's root before its other members and
	// meets the roots in listing order. size[r] turns from the set's
	// size into its index in out.
	members := make([]int, 0, n)
	out := make([][]int, 0, sets)
	for i, r := range root {
		if i == r {
			end := len(members) + size[r]
			size[r] = len(out)
			out = append(out, members[len(members):len(members):end])
			members = members[:end]
		}
		out[size[r]] = append(out[size[r]], i)
	}
	return out
}
