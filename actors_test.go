package p2pmpi

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
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

// allowedPulls lists every function of the non-test code under
// internal/ that calls .Accept(, .Recv( or .RecvTimeout(, and how many
// times. Daemons and clients receive by callback (transport.Serve and
// transport.Call); the pull forms are TCP's own reader, simnet's
// adapter and the blocking scripts kept on top of them.
var allowedPulls = map[string]int{
	"internal/transport.tcpListener.Accept": 1, // net.Listener's Accept under TCP's
	"internal/transport.tcpListener.OnConn": 1, // TCP's accept goroutine
	"internal/transport.tcpConn.OnRecv":     2, // TCP's reader goroutine
	"internal/transport.tcpConn.Recv":       1, // TCP's Recv is its RecvTimeout
	"internal/simnet.conn.Recv":             1, // the simnet adapter
	"internal/transport.RequestReply":       1, // the blocking Call, kept for bench/
	"internal/nettest.Probe.Ask":            1, // the hygiene tests' scripted client
	"internal/mpi.Comm.Recv":                1, // mpi.Comm, not a transport type
	"internal/mpi.Comm.Sendrecv":            1, // mpi.Comm, not a transport type
	"internal/mpi.Comm.recvCol":             1, // mpi.Comm, not a transport type
	"internal/nas.RunIS":                    1, // mpi.Comm, not a transport type
}

// threadSites parses every non-test Go file under internal/ and returns,
// per function ("dir.Func" or "dir.Type.Method"), the positions of its
// .Go( calls, of its go statements and of its pull-form calls.
func threadSites(t *testing.T) (actors, goroutines, pulls map[string][]string) {
	actors, goroutines, pulls = map[string][]string{}, map[string][]string{}, map[string][]string{}
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
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
						switch sel.Sel.Name {
						case "Go":
							actors[key] = append(actors[key], fset.Position(n.Pos()).String())
						case "Accept", "Recv", "RecvTimeout":
							pulls[key] = append(pulls[key], fset.Position(n.Pos()).String())
						}
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
	return actors, goroutines, pulls
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
			t.Errorf("%s makes %d %s, %d allowed: %s", k, len(sites), what, allowed[k], strings.Join(sites, ", "))
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
	actors, _, _ := threadSites(t)
	checkAllowList(t, "actors", actors, allowedActors)
}

// TestGoStatementsOnlyWhereAllowed fails on any go statement outside
// allowedGoroutines: a simulated component that starts a goroutine
// escapes the scheduler's determinism.
func TestGoStatementsOnlyWhereAllowed(t *testing.T) {
	_, goroutines, _ := threadSites(t)
	checkAllowList(t, "goroutines", goroutines, allowedGoroutines)
}

// TestPullFormsOnlyWhereAllowed fails on any Accept, Recv or
// RecvTimeout call outside allowedPulls: a new reader by pull would
// bring back the second receive path the adapters stand in for.
func TestPullFormsOnlyWhereAllowed(t *testing.T) {
	_, _, pulls := threadSites(t)
	checkAllowList(t, "pull-form calls", pulls, allowedPulls)
}

// compatNames parses every internal/*/compat.go and returns the
// functions they declare, as "import/path.Name": the adapters kept for
// bench/ alone.
func compatNames(t *testing.T) map[string]bool {
	files, err := filepath.Glob("internal/*/compat.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no compat.go under internal/: %v", err)
	}
	names := map[string]bool{}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names["p2pmpi/"+filepath.ToSlash(filepath.Dir(file))+"."+fn.Name.Name] = true
			}
		}
	}
	return names
}

// compatCalls returns the calls in f, a file of package pkg, to any of
// names: qualified through f's imports, or plain within pkg itself.
func compatCalls(fset *token.FileSet, f *ast.File, pkg string, names map[string]bool) []string {
	imports := map[string]string{}
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
	}
	var calls []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var key string
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			key = pkg + "." + fun.Name
		case *ast.SelectorExpr:
			if x, ok := fun.X.(*ast.Ident); ok && imports[x.Name] != "" {
				key = imports[x.Name] + "." + fun.Sel.Name
			}
		}
		if names[key] {
			calls = append(calls, fset.Position(call.Pos()).String()+" calls "+key)
		}
		return true
	})
	return calls
}

// TestCompatOnlyForBench fails when non-test code outside bench/ calls
// an adapter of a compat.go, other than another adapter: each of them
// stands in for a path that is gone, and bench/ is all they serve.
func TestCompatOnlyForBench(t *testing.T) {
	names := compatNames(t)
	fset := token.NewFileSet()
	planted, err := parser.ParseFile(fset, "internal/mpd/planted.go",
		"package mpd\nimport \"p2pmpi/internal/proto\"\nfunc f() { proto.UnmarshalPeerList(nil, nil) }\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := compatCalls(fset, planted, "p2pmpi/internal/mpd", names); len(got) != 1 {
		t.Fatalf("a planted proto.UnmarshalPeerList call is found %d times, want 1", len(got))
	}
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "bench" || p == "testdata" || p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") ||
			d.Name() == "compat.go" && strings.HasPrefix(p, "internal"+string(filepath.Separator)) {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, c := range compatCalls(fset, f, path.Join("p2pmpi", filepath.ToSlash(filepath.Dir(p))), names) {
			t.Errorf("%s: an adapter kept for bench/ only", c)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
