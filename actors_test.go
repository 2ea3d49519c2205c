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
// processes and a promoted backup's log resend, scheduler workers —
// plus the harness's submitter. Daemon lifecycles, gossip, sweeps, boot,
// RPCs, arrivals and the MPI heartbeat and failure detector are event
// chains, on every network.
var allowedActors = map[string]int{
	"internal/mpd.MPD.handleStart":   1, // mpd.job.*: one job runner per launched job
	"internal/mpd.MPD.runJob":        1, // proc.*: the job's MPI processes
	"internal/mpi.Comm.monitorTick":  1, // mpi.resend.*: a promoted backup resends its log, which may dial and park
	"internal/mpi.RunLocal":          1, // mpi.local.*: processes of a local run
	"internal/sched.Scheduler.Start": 1, // sched.worker.*: the submitters
	"internal/exp.submitPumped":      1, // the harness's submitter actor
}

// allowedGoroutines lists every function of the non-test code under
// internal/ with go statements, and how many. Goroutines belong to the
// real world — the wall-clock runtime's actors, TCP's delivery context
// — and to parallelism the simulation cannot see: shard workers, the
// sweep pool and the world's parallel host build.
var allowedGoroutines = map[string]int{
	"internal/vtime.Real.Go":                1, // an actor on the wall-clock runtime
	"internal/vtime.NewDomain":              1, // one worker per shard
	"internal/exp.sweep":                    1, // the sweep's workers
	"internal/exp.NewWorld":                 1, // the parallel host build
	"internal/transport.TCP.DialFunc":       1, // a dial's goroutine
	"internal/transport.tcpListener.OnConn": 1, // a listener's accept goroutine
	"internal/transport.tcpConn.OnRecv":     1, // a conn's reader goroutine
}

// threadSites parses every non-test Go file under internal/ and returns,
// per function ("dir.Func" or "dir.Type.Method"), the positions of its
// .Go( calls and of its go statements.
func threadSites(t *testing.T) (actors, goroutines map[string][]string) {
	actors, goroutines = map[string][]string{}, map[string][]string{}
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
			if fn.Recv != nil {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if generic, ok := typ.(*ast.IndexExpr); ok {
					typ = generic.X
				}
				key = strings.TrimSuffix(key, fn.Name.Name) + typ.(*ast.Ident).Name + "." + fn.Name.Name
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Go" {
						actors[key] = append(actors[key], fset.Position(n.Pos()).String())
					}
				case *ast.GoStmt:
					goroutines[key] = append(goroutines[key], fset.Position(n.Pos()).String())
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return actors, goroutines
}

// checkAllowList fails t on any site of found outside allowed (or beyond
// its count), and on any allow-list entry that matches nothing.
func checkAllowList(t *testing.T, what string, found map[string][]string, allowed map[string]int) {
	t.Helper()
	keys := make([]string, 0, len(found))
	for k := range found {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if sites := found[k]; len(sites) > allowed[k] {
			t.Errorf("%s starts %d %s, %d allowed: %s", k, len(sites), what, allowed[k], strings.Join(sites, ", "))
		}
	}
	for k, n := range allowed {
		if len(found[k]) == 0 {
			t.Errorf("allow-list entry %s (%d) matches no site: drop it", k, n)
		}
	}
}

// TestOnlySimulatedProcessesAreActors fails on any .Go( call site
// outside allowedActors.
func TestOnlySimulatedProcessesAreActors(t *testing.T) {
	actors, _ := threadSites(t)
	checkAllowList(t, "actors", actors, allowedActors)
}

// TestGoStatementsOnlyWhereAllowed fails on any go statement outside
// allowedGoroutines: a simulated component that starts a goroutine
// escapes the scheduler's determinism.
func TestGoStatementsOnlyWhereAllowed(t *testing.T) {
	_, goroutines := threadSites(t)
	checkAllowList(t, "goroutines", goroutines, allowedGoroutines)
}
