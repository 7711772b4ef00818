package placement

import "testing"

func cands() []Candidate {
	return []Candidate{
		{Node: "c1", Slots: 1, Speed: 1.0, Load: 2.0, Predicted: 3.0},
		{Node: "c2", Slots: 4, Speed: 1.0, Load: 0.5, Predicted: 2.5},
		{Node: "c3", Slots: 2, Speed: 2.0, Load: 0.5, Predicted: 0.1},
	}
}

func TestLeastLoadedPicksLowestLoadFastest(t *testing.T) {
	// c2 and c3 tie on load; c3 is faster.
	got, ok := LeastLoaded{}.Pick(Request{}, cands())
	if !ok || got != "c3" {
		t.Fatalf("LeastLoaded picked %q ok=%v, want c3", got, ok)
	}
}

func TestPredictedLoadPicksLowestForecast(t *testing.T) {
	got, ok := PredictedLoad{}.Pick(Request{}, cands())
	if !ok || got != "c3" {
		t.Fatalf("PredictedLoad picked %q ok=%v, want c3", got, ok)
	}
	// Flip the forecast: c2 is about to drain, c3 about to spike.
	cs := cands()
	cs[1].Predicted, cs[2].Predicted = 0.1, 2.5
	if got, _ := (PredictedLoad{}).Pick(Request{}, cs); got != "c2" {
		t.Fatalf("PredictedLoad ignored the forecast: picked %q, want c2", got)
	}
}

func TestPackPicksFewestFreeSlots(t *testing.T) {
	got, ok := Pack{}.Pick(Request{}, cands())
	if !ok || got != "c1" {
		t.Fatalf("Pack picked %q ok=%v, want c1 (1 free slot)", got, ok)
	}
}

func TestPickEmptyCandidates(t *testing.T) {
	for _, p := range []Placer{LeastLoaded{}, PredictedLoad{}, Pack{}} {
		if got, ok := p.Pick(Request{}, nil); ok {
			t.Errorf("%s picked %q from no candidates", p.Name(), got)
		}
	}
}

func TestTiesBreakByName(t *testing.T) {
	flat := []Candidate{
		{Node: "b", Slots: 2, Speed: 1, Load: 1, Predicted: 1},
		{Node: "a", Slots: 2, Speed: 1, Load: 1, Predicted: 1},
		{Node: "c", Slots: 2, Speed: 1, Load: 1, Predicted: 1},
	}
	for _, p := range []Placer{LeastLoaded{}, PredictedLoad{}, Pack{}} {
		if got, _ := p.Pick(Request{}, flat); got != "a" {
			t.Errorf("%s tie-break picked %q, want a", p.Name(), got)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil || p == nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if p, err := ByName(""); err != nil || p != nil {
		t.Errorf("ByName(\"\") = %v, %v; want nil, nil", p, err)
	}
	if _, err := ByName("round-robin"); err == nil {
		t.Error("ByName accepted an unknown policy")
	}
}
