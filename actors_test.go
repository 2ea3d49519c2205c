package p2pmpi

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowedActors lists every function of the simulator's non-test code
// that may start an actor, with how many Go calls it makes. The rule:
// only processes of the simulated system are actors — job runners, MPI
// processes and their heartbeat and detector loops, scheduler workers —
// plus the transport's fallbacks for networks that cannot call back
// (TCP) and the harness's submitter. Daemon lifecycles, gossip, sweeps,
// boot, RPCs and arrivals are event chains.
var allowedActors = map[string]int{
	"internal/mpd.handleStart":     1, // mpd.job.*: one job runner per launched job
	"internal/mpd.runJob":          1, // proc.*: the job's MPI processes
	"internal/mpi.Join":            2, // mpi.hb.* / mpi.fd.*: heartbeat and failure detector
	"internal/mpi.RunLocal":        1, // mpi.local.*: processes of a local run
	"internal/sched.Start":         1, // sched.worker.*: the submitters
	"internal/transport.Serve":     1, // the accept loop of a listener without callbacks
	"internal/transport.serveConn": 1, // the Recv loop of a conn without callbacks
	"internal/transport.Call":      1, // RequestReply on a network without callbacks
	"internal/exp.submitPumped":    1, // the harness's submitter actor
}

// TestOnlySimulatedProcessesAreActors parses every non-test Go file under
// internal/ and fails on any .Go( call site outside allowedActors (or
// beyond its count).
func TestOnlySimulatedProcessesAreActors(t *testing.T) {
	found := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			key := filepath.ToSlash(filepath.Dir(path)) + "." + fn.Name.Name
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Go" {
						found[key] = append(found[key], fset.Position(call.Pos()).String())
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(found))
	for k := range found {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if sites := found[k]; len(sites) > allowedActors[k] {
			t.Errorf("%s starts %d actors, %d allowed: %s", k, len(sites), allowedActors[k], strings.Join(sites, ", "))
		}
	}
	for k, n := range allowedActors {
		if len(found[k]) == 0 {
			t.Errorf("allow-list entry %s (%d) matches no Go call: drop it", k, n)
		}
	}
}
