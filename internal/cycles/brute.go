package cycles

// EnumerateElementaryCycles calls fn for every elementary (simple) cycle of
// the graph, passing the cycle as a slice of edge indices. Enumeration stops
// early if fn returns an error.
//
// The implementation is a straightforward rooted DFS: for each root r (in
// increasing order) it enumerates cycles whose minimum vertex is r, which
// visits each elementary cycle exactly once.
func (s *System) EnumerateElementaryCycles(fn func(cycle []int) error) error {
	adj := s.G.Adj()
	n := s.G.N
	onPath := make([]bool, n)
	var stack []int // edge indices of the current path

	var dfs func(root, v int) error
	dfs = func(root, v int) error {
		onPath[v] = true
		for _, ei := range adj[v] {
			w := s.G.Edges[ei].To
			if w < root {
				continue // cycles through smaller vertices are found from their own root
			}
			if w == root {
				stack = append(stack, ei)
				if err := fn(stack); err != nil {
					return err
				}
				stack = stack[:len(stack)-1]
				continue
			}
			if onPath[w] {
				continue
			}
			stack = append(stack, ei)
			if err := dfs(root, w); err != nil {
				return err
			}
			stack = stack[:len(stack)-1]
		}
		onPath[v] = false
		return nil
	}

	for root := 0; root < n; root++ {
		if err := dfs(root, root); err != nil {
			return err
		}
	}
	return nil
}
