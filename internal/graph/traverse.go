package graph

// This file contains traversal-based algorithms: BFS distances, connectivity,
// components, diameter, and eccentricity. All distances are hop counts;
// unreachable vertices have distance Inf.

// Inf is the distance reported for unreachable vertex pairs.
const Inf = int(^uint(0) >> 1)

// BFS returns the hop distance from src to every vertex (Inf if
// unreachable) together with a BFS parent array (-1 for src and unreachable
// vertices).
func (g *Graph) BFS(src int) (dist, parent []int) {
	g.check(src)
	dist = make([]int, g.n)
	parent = make([]int, g.n)
	for i := range dist {
		dist[i] = Inf
		parent[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] == Inf {
				dist[v] = dist[u] + 1
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return dist, parent
}

// Distance returns the hop distance between u and v (Inf if disconnected).
func (g *Graph) Distance(u, v int) int {
	dist, _ := g.BFS(u)
	return dist[v]
}

// ShortestPath returns a shortest u-v path as a vertex sequence including
// both endpoints, or nil if v is unreachable from u.
func (g *Graph) ShortestPath(u, v int) []int {
	dist, parent := g.BFS(u)
	if dist[v] == Inf {
		return nil
	}
	path := []int{v}
	for cur := v; cur != u; {
		cur = parent[cur]
		path = append(path, cur)
	}
	// Reverse in place.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Connected reports whether the graph is connected. The empty graph and the
// single-vertex graph are connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	dist, _ := g.BFS(0)
	for _, d := range dist {
		if d == Inf {
			return false
		}
	}
	return true
}

// ConnectedSubset reports whether all vertices in vs lie in one connected
// component of g (vacuously true for fewer than two vertices).
func (g *Graph) ConnectedSubset(vs []int) bool {
	if len(vs) <= 1 {
		return true
	}
	dist, _ := g.BFS(vs[0])
	for _, v := range vs[1:] {
		if dist[v] == Inf {
			return false
		}
	}
	return true
}

// Components returns the connected components as vertex lists (each sorted
// ascending, components ordered by smallest vertex).
func (g *Graph) Components() [][]int {
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var out [][]int
	for s := 0; s < g.n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := len(out)
		comp[s] = id
		cur := []int{s}
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.adj[u] {
				if comp[v] < 0 {
					comp[v] = id
					cur = append(cur, v)
					queue = append(queue, v)
				}
			}
		}
		out = append(out, cur)
	}
	for _, c := range out {
		sortInts(c)
	}
	return out
}

// Eccentricity returns the greatest hop distance from v to any reachable
// vertex, and whether all vertices are reachable.
func (g *Graph) Eccentricity(v int) (ecc int, allReachable bool) {
	dist, _ := g.BFS(v)
	allReachable = true
	for _, d := range dist {
		if d == Inf {
			allReachable = false
			continue
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc, allReachable
}

// Diameter returns the largest hop distance between any connected vertex
// pair, and whether the graph is connected. For a disconnected graph the
// returned diameter spans only within components.
func (g *Graph) Diameter() (diam int, connected bool) {
	connected = true
	for v := 0; v < g.n; v++ {
		ecc, all := g.Eccentricity(v)
		if !all {
			connected = false
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam, connected
}

// AllPairsDistances returns the full hop-distance matrix via n BFS passes.
func (g *Graph) AllPairsDistances() [][]int {
	out := make([][]int, g.n)
	for v := 0; v < g.n; v++ {
		d, _ := g.BFS(v)
		out[v] = d
	}
	return out
}

func sortInts(xs []int) {
	// Insertion sort: component lists are produced nearly ordered and are
	// typically small; avoids importing sort in this file twice.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}
