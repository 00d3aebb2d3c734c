package istrunc

import (
	"math"
	"sync"
	"testing"
)

func TestTrackerGroupMin(t *testing.T) {
	tr := New(1.0, true)
	if tr.View().Cap() != 1.0 {
		t.Fatalf("empty-group cap %v, want rho", tr.View().Cap())
	}
	tr.Observe(0.9)
	tr.Observe(0.7)
	tr.Observe(1.3)
	if tr.View().Cap() != 0.7 {
		t.Fatalf("cap %v, want group min 0.7", tr.View().Cap())
	}
	if tr.ExportState().Count != 3 {
		t.Fatalf("group size %d", tr.ExportState().Count)
	}
	v := tr.View()
	if !v.Enabled || v.Rho != 1.0 || v.GroupMin != 0.7 {
		t.Fatalf("view %+v", v)
	}
}

func TestTrackerRhoBinds(t *testing.T) {
	tr := New(0.8, true)
	tr.Observe(2.5) // group min above rho: rho binds
	if tr.View().Cap() != 0.8 {
		t.Fatalf("cap %v, want rho 0.8", tr.View().Cap())
	}
}

func TestTrackerReset(t *testing.T) {
	tr := New(1.0, true)
	tr.Observe(0.4)
	tr.ResetGroup()
	if tr.ExportState().Count != 0 {
		t.Fatal("reset did not clear count")
	}
	if tr.View().Cap() != 1.0 {
		t.Fatalf("post-reset cap %v", tr.View().Cap())
	}
}

func TestTrackerDisabled(t *testing.T) {
	tr := New(1.0, false)
	tr.Observe(0.1)
	if !math.IsInf(tr.View().Cap(), 1) {
		t.Fatalf("disabled cap %v, want +Inf", tr.View().Cap())
	}
	if tr.View().Enabled {
		t.Fatal("Enabled() lied")
	}
}

func TestTrackerIgnoresInvalidRatios(t *testing.T) {
	tr := New(1.0, true)
	tr.Observe(math.NaN())
	tr.Observe(-0.5)
	tr.Observe(0)
	if tr.ExportState().Count != 0 {
		t.Fatal("invalid ratios counted")
	}
	if tr.View().Cap() != 1.0 {
		t.Fatalf("cap %v after invalid observations", tr.View().Cap())
	}
}

func TestTrackerConcurrentObserve(t *testing.T) {
	tr := New(1.0, true)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr.Observe(0.5 + float64(i)*0.01)
		}(i)
	}
	wg.Wait()
	if tr.ExportState().Count != 50 {
		t.Fatalf("group size %d after concurrent observes", tr.ExportState().Count)
	}
	if tr.View().Cap() != 0.5 {
		t.Fatalf("cap %v, want 0.5", tr.View().Cap())
	}
}

func TestRhoAccessor(t *testing.T) {
	if New(0.6, true).View().Rho != 0.6 {
		t.Fatal("Rho accessor wrong")
	}
}
