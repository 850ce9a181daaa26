package matrix

// RCM computes a reverse Cuthill–McKee ordering for the graph given by the
// adjacency lists. It returns perm with perm[old] = new, chosen to reduce the
// matrix profile before skyline factorization. Disconnected components are
// handled by restarting from the lowest-degree unvisited node (lowest
// original index among equal degrees).
//
// The BFS queue is the visit-order slice itself (every dequeued node is
// appended to the order in enqueue order, so the two sequences coincide), and
// freshly enqueued neighbours are degree-sorted in place with an insertion
// sort — RC-network degrees are tiny, and this keeps the whole routine at
// three allocations regardless of graph size.
//
// The ordering is fully deterministic and independent of the adjacency
// lists' own ordering: equal-degree neighbours are tied broken by ascending
// original index (explicitly, in the sort comparison), so every input
// describing the same graph yields the same permutation. Fingerprint-keyed
// ROM memoization relies on this: two structurally identical clusters must
// factor through the same ordering to produce bit-identical models.
func RCM(adj [][]int) []int {
	n := len(adj)
	order := make([]int, 0, n) // Cuthill–McKee visit order (old indices)
	visited := make([]bool, n)
	deg := make([]int, n)
	for i, a := range adj {
		deg[i] = len(a)
	}
	head := 0
	for len(order) < n {
		// Pick the unvisited node with minimum degree as the component root.
		root := -1
		for i := 0; i < n; i++ {
			if !visited[i] && (root == -1 || deg[i] < deg[root]) {
				root = i
			}
		}
		visited[root] = true
		order = append(order, root)
		for head < len(order) {
			v := order[head]
			head++
			// Enqueue unvisited neighbours in increasing degree order.
			start := len(order)
			for _, w := range adj[v] {
				if !visited[w] {
					visited[w] = true
					order = append(order, w)
				}
			}
			seg := order[start:]
			for a := 1; a < len(seg); a++ {
				x := seg[a]
				b := a - 1
				for b >= 0 && (deg[seg[b]] > deg[x] ||
					(deg[seg[b]] == deg[x] && seg[b] > x)) {
					seg[b+1] = seg[b]
					b--
				}
				seg[b+1] = x
			}
		}
	}
	// Reverse the Cuthill–McKee order and convert to old→new form.
	perm := make([]int, n)
	for newIdx, oldIdx := range order {
		perm[oldIdx] = n - 1 - newIdx
	}
	return perm
}

// Profile returns the skyline profile size (number of stored entries of the
// lower triangle including the diagonal) of the sparse matrix pattern under
// the identity ordering.
func Profile(adj [][]int) int {
	total := 0
	for i, nbrs := range adj {
		first := i
		for _, j := range nbrs {
			if j < first {
				first = j
			}
		}
		total += i - first + 1
	}
	return total
}
