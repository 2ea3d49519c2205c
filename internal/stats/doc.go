// Package stats provides the small statistical toolkit of the
// experiment harness: exact order-statistic summaries (Summarize, which
// copies and sorts a bounded sample), their O(1)-memory streaming
// counterpart (Stream, Welford moments fused with a mergeable TDigest)
// for the open-system sweeps, and Kendall-tau rank correlation for the
// latency-estimator ablations. No package in the middleware proper
// depends on it, keeping the measurement code out of the measured code.
package stats
