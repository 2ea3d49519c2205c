package replica

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// model is the naive replica group the reference test drives beside
// Group: one record per replica, every question answered by a scan.
type model struct {
	self    int
	timeout time.Duration
	reps    []repModel
}

type repModel struct {
	alive bool
	last  time.Time
	epoch uint64
}

// probe is an Epoch read whose answer comes back later (HeartbeatAt).
type probe struct {
	idx   int
	epoch uint64
}

func (m *model) valid(i int) bool { return i >= 0 && i < len(m.reps) }

func (m *model) beat(i int, now time.Time) {
	if m.valid(i) {
		m.reps[i].alive, m.reps[i].last = true, now
	}
}

func (m *model) kill(i int) {
	if m.valid(i) && m.reps[i].alive {
		m.reps[i].alive = false
		m.reps[i].epoch++
	}
}

// suspect declares dead every other live replica silent past the timeout.
func (m *model) suspect(now time.Time) (out []int) {
	for i, r := range m.reps {
		if i != m.self && r.alive && now.Sub(r.last) > m.timeout {
			m.kill(i)
			out = append(out, i)
		}
	}
	return out
}

func (m *model) leader() int {
	return slices.IndexFunc(m.reps, func(r repModel) bool { return r.alive })
}

// diff compares every observable of g with the model, replica indices
// one past either end included.
func (m *model) diff(g *Group) error {
	if g.Leader() != m.leader() {
		return fmt.Errorf("leader %d, model %d", g.Leader(), m.leader())
	}
	live := 0
	for i := -1; i <= len(m.reps); i++ {
		var want repModel
		if m.valid(i) {
			want = m.reps[i]
		}
		if want.alive {
			live++
		}
		if g.Alive(i) != want.alive || g.Epoch(i) != want.epoch {
			return fmt.Errorf("replica %d: alive %v epoch %d, model %v %d", i, g.Alive(i), g.Epoch(i), want.alive, want.epoch)
		}
	}
	if g.LiveCount() != live {
		return fmt.Errorf("live count %d, model %d", g.LiveCount(), live)
	}
	return nil
}

// TestGroupMatchesModel drives member groups and monitors of degree 1
// to 4 and the model with the same seeded operations — heartbeats,
// probes answered late through HeartbeatAt, death reports and detector
// rounds — and compares them after every operation. Epochs must never
// decrease, and a probe that predates a death declaration must not
// resurrect the replica.
func TestGroupMatchesModel(t *testing.T) {
	const timeout = time.Second
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(4)
		self := rng.Intn(r+1) - 1 // -1: a monitor
		now := t0
		g := NewMonitor(r, timeout, now)
		if self >= 0 {
			g = NewGroup(r, self, timeout, now)
		}
		m := &model{self: self, timeout: timeout, reps: make([]repModel, r)}
		for i := range m.reps {
			m.reps[i] = repModel{alive: true, last: now}
		}
		var probes []probe
		epochs := make([]uint64, r)
		for op := 0; op < 300; op++ {
			now = now.Add(time.Duration(rng.Intn(700)) * time.Millisecond)
			i := rng.Intn(r+2) - 1
			what := "HeartbeatFrom"
			switch k := rng.Intn(10); {
			case k < 3:
				g.HeartbeatFrom(i, now)
				m.beat(i, now)
			case k < 5:
				what = "probe"
				probes = append(probes, probe{i, g.Epoch(i)})
			case k < 7 && len(probes) > 0:
				what = "HeartbeatAt"
				j := rng.Intn(len(probes))
				p := probes[j]
				probes = slices.Delete(probes, j, j+1)
				g.HeartbeatAt(p.idx, p.epoch, now)
				if m.valid(p.idx) && m.reps[p.idx].epoch == p.epoch {
					m.beat(p.idx, now)
				}
			case k < 8:
				what = "MarkDead"
				g.MarkDead(i)
				m.kill(i)
			default:
				what = "Suspect"
				if got, want := g.Suspect(now), m.suspect(now); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: Suspect returned %v, model %v", seed, op, got, want)
				}
			}
			if err := m.diff(g); err != nil {
				t.Fatalf("seed %d (r=%d self=%d) op %d %s(%d): %v", seed, r, self, op, what, i, err)
			}
			for j, e := range epochs {
				if g.Epoch(j) < e {
					t.Fatalf("seed %d op %d: replica %d's epoch fell from %d to %d", seed, op, j, e, g.Epoch(j))
				}
				epochs[j] = g.Epoch(j)
			}
		}
	}
}
