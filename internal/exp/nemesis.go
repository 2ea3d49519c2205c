package exp

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"p2pmpi/internal/churn"
	"p2pmpi/internal/core"
	"p2pmpi/internal/faults"
	"p2pmpi/internal/grid"
	"p2pmpi/internal/mpd"
	"p2pmpi/internal/sched"
)

// The nemesis experiment family measures survivability under injected
// faults — the axis the paper's failure-free Grid'5000 snapshot never
// exercised, although replication is P2P-MPI's founding feature. Each
// point boots a fresh world, arms a seeded network nemesis (site-pair
// partitions including federation-splitting cuts, uniform link loss,
// gray hosts, frame duplication — internal/faults) and, at a non-zero
// MTBF, seeded host churn (churn.Trace over MTBF/MTTR distributions,
// optionally with correlated site outages), and pushes a batch of
// fixed-duration jobs through the multi-job scheduler with the mid-run
// failure detector and the RPC robustness layer configured per the
// sweep. What comes out, per (loss, partition duration, MTBF,
// replication degree R, strategy): the job success rate, the
// completion-time inflation over the failure-free baseline, replica
// failovers, re-books and wasted slot-hours, the retry volume the
// robustness layer spent, and — on federated worlds — the split-brain
// window and anti-entropy healing latency.
//
// The churn family is this sweep with no network faults (one loss-0,
// partition-free point) and the retry layer off, swept over MTBF, R and
// strategy — the experimental story for the replication degree of the
// original P2P-MPI system. ChurnPointsCSV and RenderChurnPoints render
// its columns.

// NemesisPoint is one (loss, partition duration, MTBF, R, strategy)
// measurement.
type NemesisPoint struct {
	// Loss and PartDurSeconds are the swept coordinates; PartMTBFSeconds
	// echoes the fixed spell cadence (0 when partitions are off at this
	// point).
	Loss            float64
	PartDurSeconds  float64
	PartMTBFSeconds float64
	// Strategy and MTBFSeconds are the remaining swept coordinates (R
	// below is the last); MTTRSeconds echoes the repair time (0, like
	// MTBFSeconds, when the point injects no churn).
	Strategy                 core.Strategy
	MTBFSeconds, MTTRSeconds float64
	// N, R and Jobs echo the submitted batch; Hosts is the booted world
	// size.
	N, R, Jobs int
	Hosts      int
	// Succeeded and Failed partition the batch by outcome (the
	// replication-level criterion: every rank delivered through at least
	// one replica).
	Succeeded, Failed int
	SuccessRate       float64
	// MeanSeconds averages the enqueue-to-finish virtual time of
	// succeeded jobs; Inflation divides it by the failure-free job
	// duration.
	MeanSeconds float64
	Inflation   float64
	// Failovers counts ranks rescued by a backup replica over succeeded
	// jobs; HostsLost counts hosts the detectors wrote off over all
	// final attempts; Rebooks counts extra submission attempts beyond
	// the first, and WastedSlotHours charges every errored attempt's
	// duration times the job's process count — the capacity burned
	// without producing a completed job.
	Failovers       int
	HostsLost       int
	Rebooks         int
	WastedSlotHours float64
	// Partitions, PartitionSeconds and CutPairs echo what the fault
	// driver actually injected: partition spells, total time with at
	// least one active cut, and deduplicated per-link cut onsets.
	Partitions       int
	PartitionSeconds float64
	CutPairs         int
	// FailuresInjected and DownFraction report what the churn engine
	// did at a non-zero MTBF: deduplicated host failures fired, and the
	// measured fraction of host-time spent down.
	FailuresInjected int
	DownFraction     float64

	// The membership-tier measurements below depend on the federation
	// width and are reported by NemesisFederationCSV, not the pinned
	// NemesisPointsCSV (same split as the scale family's two CSVs).

	// SN is the federation width of the measured world. RPCRetries and
	// BreakerSkips sum the robustness layer's counters over the frontal
	// and every compute peer; GrayEpisodes counts injected gray-host
	// onsets (gray can strike the supernode tier's dedicated hosts).
	SN           int
	RPCRetries   int64
	BreakerSkips int64
	GrayEpisodes int
	// HealSamples counts partition spells whose post-heal federation
	// convergence was observed; HealMeanSeconds and HealMaxSeconds
	// measure the lag from the last cut lifting to every member holding
	// element-wise equal version vectors (0 on unfederated worlds).
	HealSamples     int
	HealMeanSeconds float64
	HealMaxSeconds  float64
}

// NemesisConfig tunes a nemesis sweep.
type NemesisConfig struct {
	// Base is the topology template (synthetic or grid5000).
	Base grid.TopologySpec
	// Strategies lists the placement policies to compare (default: the
	// first registered strategy).
	Strategies []core.Strategy
	// Losses is the uniform cross-site drop-probability axis.
	Losses []float64
	// PartDurs is the mean-partition-duration axis; a 0 entry disables
	// partitions at that point (the loss-only baseline).
	PartDurs []time.Duration
	// PartMTBF is the mean healthy time between partition spells
	// (default 5m).
	PartMTBF time.Duration
	// NoSplit injects single random site-pair cuts instead of the
	// default federation-splitting bisections.
	NoSplit bool
	// LatMult multiplies every cross-site latency (default 1); Dup
	// duplicates delivered frames with this probability, the copy
	// arriving up to DupDelay later.
	LatMult  float64
	Dup      float64
	DupDelay time.Duration
	// GrayFrac/GrayMTBF/GrayMTTR/GrayDrop/GraySlow configure gray-host
	// episodes (0 disables; see faults.Config).
	GrayFrac           float64
	GrayMTBF, GrayMTTR time.Duration
	GrayDrop, GraySlow float64
	// MTBFs is the per-host churn axis; a 0 entry disables churn at
	// that point (default {0}). MTTR is the mean repair time (default
	// 60s); Dist selects the lifetime distribution for uptimes and
	// downtimes (default exponential; weibull is heavy-tailed with
	// WeibullShape); SiteMTBF and SiteMTTR enable correlated whole-site
	// outages (0 disables). See churn.Config.
	MTBFs              []time.Duration
	MTTR               time.Duration
	Dist               churn.DistKind
	WeibullShape       float64
	SiteMTBF, SiteMTTR time.Duration
	// Rs is the replication-degree axis (default {2}).
	Rs []int
	// N is the rank count per job (default 6); Jobs the batch size per
	// point (default 4).
	N, Jobs int
	// JobSeconds is the spin duration of each job — the failure-free
	// completion baseline (default 60).
	JobSeconds float64
	// Retries is the per-job re-book budget (default 4); Detect the
	// failure-detector probe period (default 10s). The scheduler runs
	// nemesisWorkers jobs at once, and each submission attempt is
	// bounded by 3×JobSeconds plus two minutes.
	Retries int
	Detect  time.Duration
	// RPCRetries is the robustness layer's re-attempt budget (default
	// 2; -1 disables retries entirely — the no-robustness baseline the
	// bench artifact compares against), backing off from mpd's default;
	// BreakerThreshold arms the per-supernode circuit breaker (0 = off).
	RPCRetries       int
	BreakerThreshold int
}

// nemesisWorkers bounds the scheduler's in-flight jobs per point.
const nemesisWorkers = 2

func (c *NemesisConfig) fillDefaults() error {
	if len(c.Strategies) == 0 {
		c.Strategies = core.Strategies()[:1]
	}
	if len(c.Losses) == 0 {
		c.Losses = []float64{0, 0.1, 0.3}
	}
	for _, l := range c.Losses {
		if l < 0 || l >= 1 {
			return fmt.Errorf("exp: bad loss %g (want [0, 1))", l)
		}
	}
	if len(c.PartDurs) == 0 {
		c.PartDurs = []time.Duration{0, time.Minute}
	}
	for _, d := range c.PartDurs {
		if d < 0 {
			return fmt.Errorf("exp: bad partition duration %v", d)
		}
	}
	if c.PartMTBF <= 0 {
		c.PartMTBF = 5 * time.Minute
	}
	if len(c.MTBFs) == 0 {
		c.MTBFs = []time.Duration{0}
	}
	for _, m := range c.MTBFs {
		if m < 0 {
			return fmt.Errorf("exp: bad MTBF %v", m)
		}
	}
	if c.MTTR <= 0 {
		c.MTTR = time.Minute
	}
	if len(c.Rs) == 0 {
		c.Rs = []int{2}
	}
	for _, r := range c.Rs {
		if r < 1 {
			return fmt.Errorf("exp: bad replication degree %d", r)
		}
	}
	if c.N <= 0 {
		c.N = 6
	}
	if c.Jobs <= 0 {
		c.Jobs = 4
	}
	if c.JobSeconds <= 0 {
		c.JobSeconds = 60
	}
	if c.Retries <= 0 {
		c.Retries = 4
	}
	if c.Detect <= 0 {
		c.Detect = 10 * time.Second
	}
	if c.RPCRetries == 0 {
		c.RPCRetries = 2
	}
	return nil
}

// nemesisSeed derives the per-point fault seed: a pure function of
// the (loss, partition duration) coordinates, so replays and worker
// counts cannot move it.
func nemesisSeed(seed int64, loss float64, partDur time.Duration) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "nemesis|%g|%d", loss, partDur)
	return seed ^ int64(h.Sum64())
}

// churnSeed derives the per-point injection seed: a pure function of
// the (MTBF, R) coordinates, so replays and worker counts cannot move
// it — and deliberately NOT of the strategy: the host-level failure
// timeline is placement-independent, so every strategy compared at one
// (MTBF, R) point faces the identical trace. Pairing the comparison
// this way keeps cross-strategy differences attributable to policy
// rather than trace luck.
func churnSeed(seed int64, mtbf time.Duration, r int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "churn|%d|%d", mtbf, r)
	return seed ^ int64(h.Sum64())
}

// ChurnRetryable classifies the errors worth a re-book under churn:
// contention (the scheduler's default) plus the two failure outcomes —
// a host dying between Acquire and launch, and a rank losing every
// replica mid-run. Both churn surfaces (the sweep and p2pmpirun's
// -mtbf mode) share it so they agree on what the re-book path covers.
func ChurnRetryable(err error) bool {
	return errors.Is(err, mpd.ErrNotEnoughPeers) ||
		errors.Is(err, sched.ErrSaturated) ||
		errors.Is(err, mpd.ErrLaunchFailed) ||
		errors.Is(err, mpd.ErrRanksLost)
}

// nemesisCoord is one point of the sweep's grid.
type nemesisCoord struct {
	loss     float64
	partDur  time.Duration
	mtbf     time.Duration
	r        int
	strategy core.Strategy
}

// NemesisSweep measures every (loss, partition duration, MTBF, R,
// strategy) point. Each point owns an independent, freshly booted world
// with its own injection traces, so points run across a bounded pool
// with byte-identical results to a sequential run. Results are ordered
// by the coordinates in that order.
func NemesisSweep(opts Options, cfg NemesisConfig, workers int) ([]NemesisPoint, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	var coords []nemesisCoord
	for _, loss := range cfg.Losses {
		for _, pd := range cfg.PartDurs {
			for _, mtbf := range cfg.MTBFs {
				for _, r := range cfg.Rs {
					for _, st := range cfg.Strategies {
						coords = append(coords, nemesisCoord{loss, pd, mtbf, r, st})
					}
				}
			}
		}
	}
	out := make([]NemesisPoint, len(coords))
	err := runPool(len(coords), workers, func(i int) error {
		c := coords[i]
		pt, err := nemesisAt(opts, cfg, c)
		if err != nil {
			return fmt.Errorf("loss=%g partdur=%v mtbf=%v r=%d %s: %w",
				c.loss, c.partDur, c.mtbf, c.r, c.strategy, err)
		}
		out[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// nemesisAt boots one world, arms the injectors, and runs the batch.
func nemesisAt(opts Options, cfg NemesisConfig, c nemesisCoord) (NemesisPoint, error) {
	o := opts
	o.Topology = cfg.Base
	if rr := cfg.RPCRetries; rr > 0 {
		o.RPCRetries = rr
	}
	o.BreakerThreshold = cfg.BreakerThreshold
	if cfg.Base.TotalHosts() > 1000 {
		o.membershipDiet(cfg.N * c.r)
	}
	w := NewWorld(o)
	defer w.Close()
	if err := w.Boot(); err != nil {
		return NemesisPoint{}, err
	}

	horizon := time.Duration(runJobsBudget(cfg.Jobs)) * time.Second // RunJobs' pump budget
	fc := faults.Config{
		Seed:     nemesisSeed(opts.Seed, c.loss, c.partDur),
		Loss:     c.loss,
		LatMult:  cfg.LatMult,
		DupProb:  cfg.Dup,
		DupDelay: cfg.DupDelay,
		GrayFrac: cfg.GrayFrac,
		GrayMTBF: cfg.GrayMTBF, GrayMTTR: cfg.GrayMTTR,
		GrayDrop: cfg.GrayDrop, GraySlow: cfg.GraySlow,
		Horizon: horizon,
	}
	if c.partDur > 0 {
		fc.PartMTBF = cfg.PartMTBF
		fc.PartMTTR = c.partDur
		fc.Split = !cfg.NoSplit
	}
	if err := fc.Validate(); err != nil {
		return NemesisPoint{}, err
	}
	driver, hw := w.StartFaults(fc)
	var churnDriver *churn.Driver
	if c.mtbf > 0 {
		churnDriver = w.StartChurn(churn.Config{
			Seed:         churnSeed(opts.Seed, c.mtbf, c.r),
			MTBF:         c.mtbf,
			MTTR:         cfg.MTTR,
			UpDist:       cfg.Dist,
			DownDist:     cfg.Dist,
			WeibullShape: cfg.WeibullShape,
			SiteMTBF:     cfg.SiteMTBF,
			SiteMTTR:     cfg.SiteMTTR,
			Horizon:      horizon,
		})
	}

	spec := mpd.JobSpec{
		Program:        "spin",
		Args:           []string{fmt.Sprintf("%g", cfg.JobSeconds)},
		N:              cfg.N,
		R:              c.r,
		Strategy:       c.strategy,
		Timeout:        time.Duration(3*cfg.JobSeconds)*time.Second + 2*time.Minute,
		FailureDetect:  cfg.Detect,
		ReserveRetries: 1,
	}
	jobs, _, err := RunJobs(w, spec, cfg.Jobs, sched.Config{
		Workers:      nemesisWorkers,
		Retries:      cfg.Retries,
		Backoff:      sweepBackoff,
		Seed:         opts.Seed,
		IsContention: ChurnRetryable,
	})
	injected := driver.Stop()
	heal := hw.Stats()
	var crashes churn.Stats
	if churnDriver != nil {
		crashes = churnDriver.Stop()
	}
	if err != nil {
		return NemesisPoint{}, err
	}

	pt := NemesisPoint{
		Loss:           c.loss,
		PartDurSeconds: c.partDur.Seconds(),
		Strategy:       c.strategy,
		MTBFSeconds:    c.mtbf.Seconds(),
		N:              cfg.N, R: c.r, Jobs: cfg.Jobs,
		Hosts:            w.Grid.TotalHosts(),
		Partitions:       injected.Partitions,
		PartitionSeconds: injected.PartitionTime.Seconds(),
		CutPairs:         injected.CutPairs,
		GrayEpisodes:     injected.GrayEpisodes,
		FailuresInjected: crashes.Failures,
		SN:               len(w.SNs),
		HealSamples:      heal.HealSamples,
		HealMaxSeconds:   heal.HealMax.Seconds(),
	}
	if c.partDur > 0 {
		pt.PartMTBFSeconds = cfg.PartMTBF.Seconds()
	}
	if churnDriver != nil {
		pt.MTTRSeconds = cfg.MTTR.Seconds()
		pt.DownFraction = crashes.DownFraction()
	}
	if heal.HealSamples > 0 {
		pt.HealMeanSeconds = heal.HealTime.Seconds() / float64(heal.HealSamples)
	}
	st := w.Frontal.Stats()
	pt.RPCRetries, pt.BreakerSkips = st.RPCRetries, st.BreakerSkips
	for _, p := range w.Peers {
		ps := p.Stats()
		pt.RPCRetries += ps.RPCRetries
		pt.BreakerSkips += ps.BreakerSkips
	}
	var sumSecs float64
	procs := float64(cfg.N * c.r)
	for _, j := range jobs {
		pt.Rebooks += j.Attempts - 1
		pt.WastedSlotHours += j.Wasted.Hours() * procs
		if j.Result != nil {
			pt.HostsLost += j.Result.Failover.HostsLost
		}
		// Success is the replication-level criterion: every rank
		// delivered through at least one replica. A nil error with a
		// rank missing (e.g. its host stayed down past the attempt
		// deadline) is still a failed job.
		if j.Err != nil || j.Result.LostRanks() > 0 {
			pt.Failed++
			continue
		}
		pt.Succeeded++
		sumSecs += j.Latency().Seconds()
		pt.Failovers += j.Result.Failover.Failovers
	}
	pt.SuccessRate = float64(pt.Succeeded) / float64(cfg.Jobs)
	if pt.Succeeded > 0 {
		pt.MeanSeconds = sumSecs / float64(pt.Succeeded)
		pt.Inflation = pt.MeanSeconds / cfg.JobSeconds
	}
	return pt, nil
}

// NemesisPointsCSV renders the job-plane measurements, one row per
// point. Every column is independent of the
// federation width, like ScalePointsCSV: the golden regression pins
// this rendering byte-for-byte across -workers, -shards AND -sn. The
// width-dependent membership-tier columns (retry volume, breaker
// skips, gray episodes on supernode hosts, healing latency) live in
// NemesisFederationCSV.
func NemesisPointsCSV(pts []NemesisPoint) string {
	var b strings.Builder
	b.WriteString("loss,part_s,part_mtbf_s,n,r,jobs,hosts,succeeded,failed,success_rate," +
		"mean_s,inflation,failovers,hosts_lost,rebooks,partitions,partition_s,cut_pairs," +
		"failures_injected\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%g,%.0f,%.0f,%d,%d,%d,%d,%d,%d,%.4f,%.3f,%.4f,%d,%d,%d,%d,%.3f,%d,%d\n",
			p.Loss, p.PartDurSeconds, p.PartMTBFSeconds, p.N, p.R, p.Jobs, p.Hosts,
			p.Succeeded, p.Failed, p.SuccessRate, p.MeanSeconds, p.Inflation,
			p.Failovers, p.HostsLost, p.Rebooks, p.Partitions, p.PartitionSeconds,
			p.CutPairs, p.FailuresInjected)
	}
	return b.String()
}

// NemesisFederationCSV renders the membership-tier measurements —
// retry volume, breaker skips, gray episodes and the split-brain /
// healing stats. These depend on the federation width (a wider tier
// has more cross-site membership traffic to retry and its own hosts
// can go gray), so this CSV is pinned per fixed deployment shape
// (sequential vs sharded), not across -sn.
func NemesisFederationCSV(pts []NemesisPoint) string {
	var b strings.Builder
	b.WriteString("loss,part_s,sn,rpc_retries,breaker_skips,gray_episodes," +
		"splits,split_s,heal_samples,heal_mean_s,heal_max_s\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%g,%.0f,%d,%d,%d,%d,%d,%.3f,%d,%.4f,%.4f\n",
			p.Loss, p.PartDurSeconds, p.SN, p.RPCRetries, p.BreakerSkips,
			p.GrayEpisodes, p.Partitions, p.PartitionSeconds,
			p.HealSamples, p.HealMeanSeconds, p.HealMaxSeconds)
	}
	return b.String()
}

// RenderNemesisPoints prints a nemesis sweep as a table.
func RenderNemesisPoints(title string, pts []NemesisPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%6s %8s %8s %9s %9s %7s %7s %8s %7s %9s\n",
		"loss", "part(s)", "success", "mean(s)", "inflate", "rebook", "lost", "retries", "splits", "heal(s)")
	for _, p := range pts {
		fmt.Fprintf(&b, "%6g %8.0f %6.0f%% %9.1f %8.2fx %7d %7d %8d %7d %9.2f\n",
			p.Loss, p.PartDurSeconds, 100*p.SuccessRate, p.MeanSeconds, p.Inflation,
			p.Rebooks, p.HostsLost, p.RPCRetries, p.Partitions, p.HealMeanSeconds)
	}
	return b.String()
}

// ChurnPointsCSV renders the churn columns of a sweep, one row per
// point: the strategy, the failure model, the batch outcome and what
// the churn engine injected.
func ChurnPointsCSV(pts []NemesisPoint) string {
	var b strings.Builder
	b.WriteString("strategy,mtbf_s,mttr_s,n,r,jobs,hosts,succeeded,failed,success_rate," +
		"mean_s,inflation,failovers,hosts_lost,rebooks,wasted_slot_hours," +
		"failures_injected,down_fraction\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%s,%.0f,%.0f,%d,%d,%d,%d,%d,%d,%.4f,%.3f,%.4f,%d,%d,%d,%.4f,%d,%.4f\n",
			p.Strategy, p.MTBFSeconds, p.MTTRSeconds, p.N, p.R, p.Jobs, p.Hosts,
			p.Succeeded, p.Failed, p.SuccessRate, p.MeanSeconds, p.Inflation,
			p.Failovers, p.HostsLost, p.Rebooks, p.WastedSlotHours,
			p.FailuresInjected, p.DownFraction)
	}
	return b.String()
}

// RenderChurnPoints prints the churn columns of a sweep as a table.
func RenderChurnPoints(title string, pts []NemesisPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%8s %3s %-12s %8s %9s %9s %5s %7s %10s %9s\n",
		"mtbf(s)", "r", "strategy", "success", "mean(s)", "inflate", "fovr", "rebooks", "waste(s·h)", "down%")
	for _, p := range pts {
		fmt.Fprintf(&b, "%8.0f %3d %-12s %6.0f%% %9.1f %8.2fx %5d %7d %10.3f %8.1f%%\n",
			p.MTBFSeconds, p.R, p.Strategy, 100*p.SuccessRate, p.MeanSeconds,
			p.Inflation, p.Failovers, p.Rebooks, p.WastedSlotHours, 100*p.DownFraction)
	}
	return b.String()
}
