// Package bilp solves the binary integer linear program behind the paper's
// "Optimal Scheduling" (§3.1.1): problem (9) assigns sensors to queried
// locations maximizing total valuation minus sensor costs. The paper solves
// it with an off-the-shelf ILP solver; SolveFL is the from-scratch
// equivalent, an exact solver specialised to the sensor-assignment structure
// that exploits connected-component decomposition and a submodularity-based
// bound to handle the evaluation's instance sizes.
package bilp

// The sensor-assignment BILP (9) has uncapacitated-facility-location
// structure: opening sensor i costs c_i; assigning client (queried
// location) l to an open sensor i earns profit p_{l,i} > 0; each client is
// assigned to at most one sensor; unassigned clients earn nothing. This
// file solves it exactly with branch and bound whose upper bound uses the
// submodularity of S -> sum_l max_{i in S} p_{l,i}.

// FLProfit is one positive profit edge from a client to a facility.
type FLProfit struct {
	Facility int
	Profit   float64
}

// FLProblem is the facility-location instance.
type FLProblem struct {
	// OpenCost per facility (the sensor's announced cost c_s).
	OpenCost []float64
	// Profits per client: only positive-profit edges are listed, which
	// encodes the v'_l(s_i) = -1 convention of Eq. 10 (a sensor that yields
	// no positive value may not be assigned).
	Profits [][]FLProfit
}

// FLSolution describes the chosen sensors and assignments.
type FLSolution struct {
	// Open reports which facilities are opened.
	Open []bool
	// Assign maps each client to its facility, or -1 when unserved.
	Assign []int
	// Objective is total assigned profit minus total opening cost.
	Objective float64
	// Exact is false when the node budget was exhausted in some component.
	Exact bool
	// Nodes counts explored branch-and-bound nodes across components.
	Nodes int
}

// FLOptions tunes the solver.
type FLOptions struct {
	// MaxNodesPerComponent caps branch-and-bound nodes for one connected
	// component (0 means 2 million). When exceeded the component keeps its
	// incumbent and the solution is marked inexact.
	MaxNodesPerComponent int
	// WarmStart optionally provides an initial set of open facilities
	// (e.g. from local search) whose objective seeds the incumbent.
	WarmStart []bool
}

// SolveFL solves the instance exactly (up to the node budget).
func SolveFL(p *FLProblem, opts FLOptions) *FLSolution {
	nF := len(p.OpenCost)
	nC := len(p.Profits)
	maxNodes := opts.MaxNodesPerComponent
	if maxNodes <= 0 {
		maxNodes = 2_000_000
	}

	sol := &FLSolution{
		Open:   make([]bool, nF),
		Assign: make([]int, nC),
		Exact:  true,
	}
	for l := range sol.Assign {
		sol.Assign[l] = -1
	}

	comps := flComponents(p)
	for _, comp := range comps {
		cs := solveFLComponent(p, comp, maxNodes, opts.WarmStart)
		sol.Nodes += cs.nodes
		if !cs.exact {
			sol.Exact = false
		}
		for _, f := range comp.facilities {
			sol.Open[f] = cs.open[f]
		}
	}
	// Final assignment: every client takes its best open facility if that
	// profit is positive.
	for l := 0; l < nC; l++ {
		best, bestF := 0.0, -1
		for _, e := range p.Profits[l] {
			if sol.Open[e.Facility] && e.Profit > best {
				best, bestF = e.Profit, e.Facility
			}
		}
		sol.Assign[l] = bestF
		sol.Objective += best
	}
	for f, open := range sol.Open {
		if open {
			sol.Objective -= p.OpenCost[f]
		}
	}
	return sol
}

// flComponent is one connected component of the client-facility bipartite
// graph.
type flComponent struct {
	facilities []int
	clients    []int
}

func flComponents(p *FLProblem) []flComponent {
	nF := len(p.OpenCost)
	nC := len(p.Profits)
	// Union-find over facilities and clients (clients offset by nF).
	parent := make([]int, nF+nC)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for l, edges := range p.Profits {
		for _, e := range edges {
			union(nF+l, e.Facility)
		}
	}
	groups := map[int]*flComponent{}
	var order []int
	for f := 0; f < nF; f++ {
		r := find(f)
		g, ok := groups[r]
		if !ok {
			g = &flComponent{}
			groups[r] = g
			order = append(order, r)
		}
		g.facilities = append(g.facilities, f)
	}
	for l := 0; l < nC; l++ {
		r := find(nF + l)
		g, ok := groups[r]
		if !ok {
			g = &flComponent{}
			groups[r] = g
			order = append(order, r)
		}
		g.clients = append(g.clients, l)
	}
	out := make([]flComponent, 0, len(order))
	for _, r := range order {
		out = append(out, *groups[r])
	}
	return out
}

type flCompSolution struct {
	open  []bool
	exact bool
	nodes int
}

// cp is a (client, profit) edge seen from a facility.
type cp struct {
	client int
	profit float64
}

// solveFLComponent runs B&B over one component's facilities.
func solveFLComponent(p *FLProblem, comp flComponent, maxNodes int, warm []bool) flCompSolution {
	const eps = 1e-9
	res := flCompSolution{open: make([]bool, len(p.OpenCost)), exact: true}
	if len(comp.facilities) == 0 {
		return res
	}

	// Local indexing for the component's facilities.
	localIdx := make(map[int]int, len(comp.facilities))
	for i, f := range comp.facilities {
		localIdx[f] = i
	}
	n := len(comp.facilities)
	cost := make([]float64, n)
	for i, f := range comp.facilities {
		cost[i] = p.OpenCost[f]
	}
	// clientEdges[l] lists (local facility, profit) for component clients.
	clientEdges := make([][]FLProfit, len(comp.clients))
	// facClients[i] lists (client index into comp.clients, profit).
	facClients := make([][]cp, n)
	for cl, l := range comp.clients {
		for _, e := range p.Profits[l] {
			li := localIdx[e.Facility]
			clientEdges[cl] = append(clientEdges[cl], FLProfit{Facility: li, Profit: e.Profit})
			facClients[li] = append(facClients[li], cp{client: cl, profit: e.Profit})
		}
	}

	// objectiveOf evaluates a candidate open set (local indexing).
	objectiveOf := func(open []bool) float64 {
		var obj float64
		for cl := range clientEdges {
			best := 0.0
			for _, e := range clientEdges[cl] {
				if open[e.Facility] && e.Profit > best {
					best = e.Profit
				}
			}
			obj += best
		}
		for i, o := range open {
			if o {
				obj -= cost[i]
			}
		}
		return obj
	}

	// Incumbent: empty set (objective 0), improved by greedy, improved by
	// the caller's warm start if provided.
	bestObj := 0.0
	bestOpen := make([]bool, n)
	if g := flGreedy(clientEdges, facClients, cost); g.obj > bestObj {
		bestObj = g.obj
		copy(bestOpen, g.open)
	}
	if warm != nil {
		w := make([]bool, n)
		for i, f := range comp.facilities {
			w[i] = warm[f]
		}
		if obj := objectiveOf(w); obj > bestObj {
			bestObj = obj
			copy(bestOpen, w)
		}
	}

	// state: 0 undecided, 1 open, 2 closed.
	state := make([]byte, n)
	// bestServed[cl]: best profit among currently open facilities.
	bestServed := make([]float64, len(comp.clients))
	var curObj float64 // objective of the currently open set
	nodes := 0
	exact := true

	// marginal gain of opening facility i given the open set.
	marginal := func(i int) float64 {
		m := -cost[i]
		for _, e := range facClients[i] {
			if e.profit > bestServed[e.client] {
				m += e.profit - bestServed[e.client]
			}
		}
		return m
	}

	var dfs func()
	dfs = func() {
		if nodes >= maxNodes {
			exact = false
			return
		}
		nodes++

		// Submodular bound: obj(open) + sum of positive marginals of
		// undecided facilities bounds every completion of this node.
		ub := curObj
		branchI, branchM := -1, 0.0
		for i := 0; i < n; i++ {
			if state[i] != 0 {
				continue
			}
			m := marginal(i)
			if m > 0 {
				ub += m
			}
			if branchI == -1 || m > branchM {
				branchI, branchM = i, m
			}
		}
		if curObj > bestObj+eps {
			bestObj = curObj
			for i := range bestOpen {
				bestOpen[i] = state[i] == 1
			}
		}
		if ub <= bestObj+eps {
			return // even the optimistic completion cannot beat incumbent
		}
		if branchI == -1 {
			return // all decided
		}

		// Branch: open branchI first (it has the largest marginal).
		i := branchI
		state[i] = 1
		saved := make([]cp, 0, 4)
		for _, e := range facClients[i] {
			if e.profit > bestServed[e.client] {
				saved = append(saved, cp{client: e.client, profit: bestServed[e.client]})
				curObj += e.profit - bestServed[e.client]
				bestServed[e.client] = e.profit
			}
		}
		curObj -= cost[i]
		dfs()
		curObj += cost[i]
		for _, s := range saved {
			curObj += s.profit - bestServed[s.client]
			bestServed[s.client] = s.profit
		}

		state[i] = 2
		dfs()
		state[i] = 0
	}
	dfs()

	res.exact = exact
	res.nodes = nodes
	for i, f := range comp.facilities {
		res.open[f] = bestOpen[i]
	}
	return res
}

type flGreedyResult struct {
	open []bool
	obj  float64
}

// flGreedy seeds the incumbent: repeatedly open the facility with the
// largest positive marginal gain.
func flGreedy(clientEdges [][]FLProfit, facClients [][]cp, cost []float64) flGreedyResult {
	n := len(cost)
	open := make([]bool, n)
	bestServed := make([]float64, len(clientEdges))
	var obj float64
	for {
		bestI, bestM := -1, 1e-9
		for i := 0; i < n; i++ {
			if open[i] {
				continue
			}
			m := -cost[i]
			for _, e := range facClients[i] {
				if e.profit > bestServed[e.client] {
					m += e.profit - bestServed[e.client]
				}
			}
			if m > bestM {
				bestI, bestM = i, m
			}
		}
		if bestI == -1 {
			break
		}
		open[bestI] = true
		obj += bestM
		for _, e := range facClients[bestI] {
			if e.profit > bestServed[e.client] {
				bestServed[e.client] = e.profit
			}
		}
	}
	return flGreedyResult{open: open, obj: obj}
}
