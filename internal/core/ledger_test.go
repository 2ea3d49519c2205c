package core

import (
	"reflect"
	"testing"
)

func ledgerHosts() []HostSlot {
	return []HostSlot{
		{ID: "a", Site: "s1", P: 4},
		{ID: "b", Site: "s1", P: 2},
		{ID: "c", Site: "s2", P: 1},
	}
}

// busy lists the hosts Saturated reports, in ledger order.
func busy(l *Ledger) []string {
	var out []string
	for _, h := range ledgerHosts() {
		if l.Saturated(h.ID) {
			out = append(out, h.ID)
		}
	}
	return out
}

func TestLedgerAcquireRelease(t *testing.T) {
	l := NewLedger(ledgerHosts(), 1)
	if got := l.FreeProcs(); got != 7 {
		t.Fatalf("FreeProcs = %d, want 7", got)
	}
	asg, err := Allocate(ledgerHosts(), 4, 1, Concentrate)
	if err != nil {
		t.Fatal(err)
	}
	// Concentrate: all 4 processes on host a.
	l.Acquire(asg)
	if got := l.FreeProcs(); got != 3 {
		t.Fatalf("after acquire FreeProcs = %d, want 3", got)
	}
	if got := busy(l); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("Busy = %v, want [a]", got)
	}
	if got := l.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}
	snap := l.Snapshot()
	var ids []string
	for _, h := range snap {
		ids = append(ids, h.ID)
	}
	if !reflect.DeepEqual(ids, []string{"b", "c"}) {
		t.Fatalf("Snapshot hosts = %v, want [b c]", ids)
	}
	l.Release(asg)
	if got := l.FreeProcs(); got != 7 {
		t.Fatalf("after release FreeProcs = %d, want 7", got)
	}
	if got := busy(l); got != nil {
		t.Fatalf("Busy after release = %v, want none", got)
	}
}

func TestLedgerJLimitSaturatesHost(t *testing.T) {
	// With J=1, a host running any application is busy even when its
	// process slots are not exhausted.
	l := NewLedger(ledgerHosts(), 1)
	asg, err := Allocate(ledgerHosts(), 2, 1, Spread)
	if err != nil {
		t.Fatal(err)
	}
	// Spread: one process each on a and b; both hold an application now.
	l.Acquire(asg)
	if got := busy(l); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Busy = %v, want [a b]", got)
	}
	if l.Saturated("zz") {
		t.Fatal("an untracked host reads saturated")
	}
	// With J=2 the same acquisition leaves residual capacity visible.
	l2 := NewLedger(ledgerHosts(), 2)
	l2.Acquire(asg)
	if got := busy(l2); got != nil {
		t.Fatalf("J=2 Busy = %v, want none", got)
	}
	snap := l2.Snapshot()
	if snap[0].ID != "a" || snap[0].P != 3 {
		t.Fatalf("J=2 snapshot[0] = %+v, want a with residual P=3", snap[0])
	}
}

func TestLedgerUnconstrained(t *testing.T) {
	l := NewLedger(nil, 1)
	if !l.Unconstrained() {
		t.Fatal("empty ledger should be unconstrained")
	}
	if got := l.FreeProcs(); got != -1 {
		t.Fatalf("FreeProcs = %d, want -1", got)
	}
	if got := busy(l); got != nil {
		t.Fatalf("Busy = %v, want none", got)
	}
	// Acquiring assignments over unknown hosts is a no-op, not a crash.
	asg, err := Allocate(ledgerHosts(), 2, 1, Spread)
	if err != nil {
		t.Fatal(err)
	}
	l.Acquire(asg)
	l.Release(asg)
}

func TestLedgerDoubleReleasePanics(t *testing.T) {
	l := NewLedger(ledgerHosts(), 1)
	asg, err := Allocate(ledgerHosts(), 2, 1, Spread)
	if err != nil {
		t.Fatal(err)
	}
	l.Acquire(asg)
	l.Release(asg)
	defer func() {
		if recover() == nil {
			t.Fatal("double release should panic")
		}
	}()
	l.Release(asg)
}
