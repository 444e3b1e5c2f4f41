package bilp

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func randomFL(s *rng.Stream, nF, nC int) *FLProblem {
	p := &FLProblem{
		OpenCost: make([]float64, nF),
		Profits:  make([][]FLProfit, nC),
	}
	for f := range p.OpenCost {
		p.OpenCost[f] = s.Uniform(1, 12)
	}
	for l := 0; l < nC; l++ {
		for f := 0; f < nF; f++ {
			if s.Bool(0.4) {
				p.Profits[l] = append(p.Profits[l], FLProfit{Facility: f, Profit: s.Uniform(0.5, 9)})
			}
		}
	}
	return p
}

func TestSolveFLMatchesBrute(t *testing.T) {
	s := rng.New(123, "fl-random")
	for trial := 0; trial < 80; trial++ {
		nF := s.IntBetween(1, 9)
		nC := s.IntBetween(1, 12)
		p := randomFL(s, nF, nC)
		brute := FLBrute(p)
		sol := SolveFL(p, FLOptions{})
		if !sol.Exact {
			t.Fatalf("trial %d: expected exact solve", trial)
		}
		if math.Abs(brute.Objective-sol.Objective) > 1e-9 {
			t.Fatalf("trial %d: brute %v != bb %v", trial, brute.Objective, sol.Objective)
		}
	}
}

func TestSolveFLAssignmentsConsistent(t *testing.T) {
	s := rng.New(5, "fl-assign")
	p := randomFL(s, 8, 15)
	sol := SolveFL(p, FLOptions{})
	for l, f := range sol.Assign {
		if f == -1 {
			continue
		}
		if !sol.Open[f] {
			t.Errorf("client %d assigned to closed facility %d", l, f)
		}
		// The assignment must be the best open option.
		var bestOpen float64
		for _, e := range p.Profits[l] {
			if sol.Open[e.Facility] && e.Profit > bestOpen {
				bestOpen = e.Profit
			}
		}
		var got float64
		for _, e := range p.Profits[l] {
			if e.Facility == f {
				got = e.Profit
			}
		}
		if got < bestOpen-1e-9 {
			t.Errorf("client %d not assigned to its best open facility", l)
		}
	}
}

func TestSolveFLEmptyAndTrivial(t *testing.T) {
	// No facilities, one client.
	p := &FLProblem{OpenCost: nil, Profits: [][]FLProfit{nil}}
	sol := SolveFL(p, FLOptions{})
	if sol.Objective != 0 || sol.Assign[0] != -1 {
		t.Errorf("empty instance: %+v", sol)
	}
	// One facility that pays for itself.
	p2 := &FLProblem{
		OpenCost: []float64{5},
		Profits:  [][]FLProfit{{{Facility: 0, Profit: 9}}},
	}
	sol2 := SolveFL(p2, FLOptions{})
	if sol2.Objective != 4 || !sol2.Open[0] || sol2.Assign[0] != 0 {
		t.Errorf("single profitable facility: %+v", sol2)
	}
	// One facility that does not pay for itself stays closed.
	p3 := &FLProblem{
		OpenCost: []float64{10},
		Profits:  [][]FLProfit{{{Facility: 0, Profit: 4}}},
	}
	sol3 := SolveFL(p3, FLOptions{})
	if sol3.Objective != 0 || sol3.Open[0] {
		t.Errorf("unprofitable facility opened: %+v", sol3)
	}
}

func TestSolveFLSharedSensorAcrossClients(t *testing.T) {
	// One sensor too expensive for any single query but worth opening for
	// three queries together — the crux of the paper's budget-7 scenario.
	p := &FLProblem{
		OpenCost: []float64{10},
		Profits: [][]FLProfit{
			{{Facility: 0, Profit: 4}},
			{{Facility: 0, Profit: 4}},
			{{Facility: 0, Profit: 4}},
		},
	}
	sol := SolveFL(p, FLOptions{})
	if !sol.Open[0] {
		t.Fatal("shared sensor should open")
	}
	if math.Abs(sol.Objective-2) > 1e-9 {
		t.Errorf("objective = %v want 2", sol.Objective)
	}
}

func TestSolveFLComponentDecomposition(t *testing.T) {
	// Two independent sub-instances must both be solved; nodes explored
	// should reflect two small searches rather than one big one.
	p := &FLProblem{
		OpenCost: []float64{3, 3},
		Profits: [][]FLProfit{
			{{Facility: 0, Profit: 5}},
			{{Facility: 1, Profit: 5}},
		},
	}
	sol := SolveFL(p, FLOptions{})
	if sol.Objective != 4 {
		t.Errorf("objective = %v want 4", sol.Objective)
	}
	if !sol.Open[0] || !sol.Open[1] {
		t.Errorf("both facilities should open: %v", sol.Open)
	}
}

func TestSolveFLWarmStart(t *testing.T) {
	s := rng.New(9, "fl-warm")
	p := randomFL(s, 10, 14)
	plain := SolveFL(p, FLOptions{})
	warm := SolveFL(p, FLOptions{WarmStart: plain.Open})
	if math.Abs(plain.Objective-warm.Objective) > 1e-9 {
		t.Errorf("warm start changed optimum: %v vs %v", plain.Objective, warm.Objective)
	}
	if warm.Nodes > plain.Nodes {
		t.Logf("warm start explored more nodes (%d > %d) — acceptable but unexpected", warm.Nodes, plain.Nodes)
	}
}

func TestSolveFLMediumInstanceExact(t *testing.T) {
	// A 60-facility, 150-client geometric-ish instance should solve exactly
	// within the node budget thanks to decomposition + submodular bound.
	s := rng.New(31, "fl-medium")
	nF, nC := 60, 150
	p := &FLProblem{OpenCost: make([]float64, nF), Profits: make([][]FLProfit, nC)}
	for f := range p.OpenCost {
		p.OpenCost[f] = 10
	}
	for l := 0; l < nC; l++ {
		// Each client sees ~4 nearby facilities.
		base := s.Intn(nF)
		for k := 0; k < 4; k++ {
			f := (base + k*3) % nF
			p.Profits[l] = append(p.Profits[l], FLProfit{Facility: f, Profit: s.Uniform(1, 8)})
		}
	}
	sol := SolveFL(p, FLOptions{})
	if !sol.Exact {
		t.Error("medium instance should solve exactly")
	}
	if sol.Objective <= 0 {
		t.Errorf("objective = %v, expected positive welfare", sol.Objective)
	}
}

// FLBrute solves small instances exhaustively; the reference SolveFL is
// checked against.
func FLBrute(p *FLProblem) *FLSolution {
	nF := len(p.OpenCost)
	if nF > 20 {
		panic("bilp: FLBrute limited to 20 facilities")
	}
	best := math.Inf(-1)
	var bestOpen []bool
	open := make([]bool, nF)
	for mask := 0; mask < 1<<uint(nF); mask++ {
		for f := 0; f < nF; f++ {
			open[f] = mask&(1<<uint(f)) != 0
		}
		var obj float64
		for _, edges := range p.Profits {
			b := 0.0
			for _, e := range edges {
				if open[e.Facility] && e.Profit > b {
					b = e.Profit
				}
			}
			obj += b
		}
		for f := 0; f < nF; f++ {
			if open[f] {
				obj -= p.OpenCost[f]
			}
		}
		if obj > best {
			best = obj
			bestOpen = append(bestOpen[:0:0], open...)
		}
	}
	sol := &FLSolution{Open: bestOpen, Assign: make([]int, len(p.Profits)), Objective: best, Exact: true}
	for l, edges := range p.Profits {
		bp, bf := 0.0, -1
		for _, e := range edges {
			if bestOpen[e.Facility] && e.Profit > bp {
				bp, bf = e.Profit, e.Facility
			}
		}
		sol.Assign[l] = bf
	}
	return sol
}
