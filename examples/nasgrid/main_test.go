package main

import (
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if want := "— matches the NPB reference\n"; !strings.Contains(out.String(), want) {
		t.Fatalf("output lacks %q:\n%s", want, out.String())
	}
}
