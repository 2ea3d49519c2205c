package churn

import (
	"testing"
	"time"

	"p2pmpi/internal/faults"
	"p2pmpi/internal/vtime"
)

// TestStopHaltsInjection checks the Driver this package names: crash
// events after Stop are not injected, and a second Stop reports the
// same stats.
func TestStopHaltsInjection(t *testing.T) {
	dom := vtime.NewDomain(1, 0)
	defer dom.Shutdown()
	fired := 0
	var d *Driver = faults.NewDriver(dom, []faults.Event{
		{At: 10 * time.Second, Kind: faults.EvCrash, Host: "h0", On: true},
		{At: 40 * time.Second, Kind: faults.EvCrash, Host: "h1", On: true},
	}, faults.Hooks{Down: func(string) { fired++ }})
	d.Start()
	dom.RunFor(20 * time.Second)
	st := d.Stop()
	dom.RunFor(time.Minute)
	if fired != 1 || st.Failures != 1 {
		t.Fatalf("fired %d hooks, %d failures, want 1 (h1 was stopped out)", fired, st.Failures)
	}
	if st.Observed != 20*time.Second || st.HostDownTime != 10*time.Second {
		t.Fatalf("observed %v, down %v, want 20s and 10s", st.Observed, st.HostDownTime)
	}
	if again := d.Stop(); again != st {
		t.Fatalf("second Stop returned different stats: %+v vs %+v", again, st)
	}
}
