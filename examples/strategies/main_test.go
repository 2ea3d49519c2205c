package main

import (
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	if testing.Short() {
		t.Skip("boots worlds")
	}
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if want := "concentrate  n=250 -> 65 hosts used across 2 site(s)\n"; !strings.Contains(out.String(), want) {
		t.Fatalf("output lacks %q:\n%s", want, out.String())
	}
}
