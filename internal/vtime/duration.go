package vtime

import (
	"fmt"
	"strconv"
	"time"
)

// maxDurationSecs (~31 years) keeps every parsed duration far from the
// int64 nanosecond overflow of time.Duration.
const maxDurationSecs = 1e9

// ParseDuration reads a command-line or spec duration: a bare number is
// seconds ("600", "1.5"), anything else a Go duration ("10m"). It
// rejects negative, NaN and infinite values and anything above 1e9 s.
func ParseDuration(s string) (time.Duration, error) {
	if secs, err := strconv.ParseFloat(s, 64); err == nil {
		if secs < 0 || secs != secs || secs > maxDurationSecs {
			return 0, fmt.Errorf("duration %q out of range", s)
		}
		return time.Duration(secs * float64(time.Second)), nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	if d > maxDurationSecs*time.Second {
		return 0, fmt.Errorf("duration %q out of range", s)
	}
	return d, nil
}
