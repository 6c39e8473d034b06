package core

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/index"
	"repro/internal/vec"
)

// TestKeyLengthDoor: every key of a key type has the length its first
// admitted put set (or its declared Dim). A lookup or put of another
// length, through every library entry point, is refused with an error
// wrapping vec.ErrDimensionMismatch before it touches anything: Stats,
// the tuner's puts and Len stay as they were. With every
// lookup set to drop out, a refused one rolls no dropout; with none, it
// probes no index.
func TestKeyLengthDoor(t *testing.T) {
	for i, cfg := range []Config{{DropoutRate: 1}, {DisableDropout: true}, {DropoutRate: 1}, {DisableDropout: true}} {
		declared := 2 * (i / 2)
		cfg.Clock = clock.NewVirtual(time.Unix(0, 0))
		c := New(cfg)
		extract := func(raw any) (vec.Vector, error) { return raw.(vec.Vector), nil }
		if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k", Dim: declared, Extract: extract}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Put("f", PutRequest{Keys: map[string]vec.Vector{"k": {1, 2}}, Value: "v"}); err != nil {
			t.Fatal(err)
		}
		ki, _ := c.keyIndexFor("f", "k")
		stats, tuner := c.Stats(), ki.tuner.Stats()

		refused := func(what string, err error) {
			t.Helper()
			if !errors.Is(err, vec.ErrDimensionMismatch) {
				t.Errorf("declared %d: %s: err = %v, want ErrDimensionMismatch", declared, what, err)
			}
		}
		for _, key := range []vec.Vector{{1}, {1, 2, 3}} {
			_, err := c.Lookup("f", "k", key)
			refused("Lookup", err)
			_, err = c.LookupOpts("f", "k", key, LookupOptions{})
			refused("LookupOpts", err)
			_, err = c.LookupRefined("f", "k", key, func(v any, _, _ vec.Vector) any { return v })
			refused("LookupRefined", err)
			for _, r := range c.MultiLookupInto(nil, []BatchLookup{{Function: "f", KeyType: "k", Key: key}}) {
				refused("MultiLookupInto", r.Err)
			}
			_, err = c.Put("f", PutRequest{Keys: map[string]vec.Vector{"k": key}, Value: "w"})
			refused("Put", err)
			_, err = c.Put("f", PutRequest{Raw: key, Value: "w"})
			refused("Put (extracted)", err)
			for _, r := range c.MultiPut([]BatchPut{{Function: "f", Req: PutRequest{Keys: map[string]vec.Vector{"k": key}, Value: "w"}}}) {
				refused("MultiPut", r.Err)
			}
		}
		if got := c.Stats(); got != stats {
			t.Errorf("declared %d: Stats moved across refused ops: %+v, then %+v", declared, stats, got)
		}
		if got := ki.tuner.Stats(); got.Puts != tuner.Puts {
			t.Errorf("declared %d: tuner puts %d, then %d", declared, tuner.Puts, got.Puts)
		}
		if c.Len() != 1 || ki.idx.Len() != 1 {
			t.Errorf("declared %d: Len %d, index Len %d, want 1", declared, c.Len(), ki.idx.Len())
		}
		// The key type's own length still passes.
		if _, err := c.Lookup("f", "k", vec.Vector{1, 2}); err != nil {
			t.Errorf("declared %d: Lookup of the key type's length: %v", declared, err)
		}
	}
}

// TestDeclaredDimRefusesTheFirstKey: a declared Dim is the length from
// the start; a first put of another length does not get to set it.
func TestDeclaredDimRefusesTheFirstKey(t *testing.T) {
	c := New(Config{DisableDropout: true})
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k", Dim: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("f", PutRequest{Keys: map[string]vec.Vector{"k": {1, 2}}, Value: 1}); !errors.Is(err, vec.ErrDimensionMismatch) {
		t.Fatalf("first put of length 2 on Dim 3: err = %v", err)
	}
	if _, err := c.Put("f", PutRequest{Keys: map[string]vec.Vector{"k": {1, 2, 3}}, Value: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestFirstPutsRaceForTheLength: two goroutines race first puts of two
// lengths onto a key type with no declared Dim; exactly one length wins,
// the other put is refused, and the index holds only the winner.
func TestFirstPutsRaceForTheLength(t *testing.T) {
	for round := 0; round < 200; round++ {
		c := New(Config{DisableDropout: true})
		if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k"}); err != nil {
			t.Fatal(err)
		}
		var start, done sync.WaitGroup
		start.Add(1)
		errs := make([]error, 2)
		for i := range errs {
			done.Add(1)
			go func(i int) {
				defer done.Done()
				start.Wait()
				_, errs[i] = c.Put("f", PutRequest{Keys: map[string]vec.Vector{"k": make(vec.Vector, 2+i)}, Value: i})
			}(i)
		}
		start.Done()
		done.Wait()
		won := 0
		for i, err := range errs {
			switch {
			case err == nil:
				won++
				ki, _ := c.keyIndexFor("f", "k")
				if w := ki.width.Load(); w != int64(2+i) {
					t.Fatalf("round %d: the %d-length put won, but the length is %d", round, 2+i, w)
				}
			case !errors.Is(err, vec.ErrDimensionMismatch):
				t.Fatalf("round %d: losing put: %v", round, err)
			}
		}
		if won != 1 || c.Len() != 1 {
			t.Fatalf("round %d: %d puts won, Len %d (errs %v)", round, won, c.Len(), errs)
		}
	}
}

// TestRestoreSkipsKeysOfAnotherLength: a hand-built state whose entries
// mix key lengths restores without error; the first length restored (or
// the declared Dim) wins, and every entry with no key of it counts as
// skipped.
func TestRestoreSkipsKeysOfAnotherLength(t *testing.T) {
	for _, tc := range []struct {
		dim           int
		entries, skip int
	}{
		{0, 3, 3}, // the first entry's length, 2, wins
		{3, 2, 4}, // the declared length wins
	} {
		state := &DurableState{Functions: []DurableFunction{{
			Name:     "f",
			KeyTypes: []DurableKeyType{{StoreKeyType: StoreKeyType{Name: "k", Metric: "euclidean", Index: "kdtree", Dim: tc.dim}}},
		}}}
		for i, key := range []vec.Vector{{1, 1}, {1, 2, 3}, {2, 2}, {1}, {3, 3}, {4, 5, 6}} {
			state.Entries = append(state.Entries, StoreEntry{
				ID: uint64(i + 1), Function: "f", Value: i, ExpiresAtNanos: time.Hour.Nanoseconds(),
				Keys: []StoreKey{{KeyType: "k", Key: key}},
			})
		}
		c := New(Config{DisableDropout: true, Clock: clock.NewVirtual(time.Unix(0, 0))})
		st, err := c.Restore(state)
		if err != nil {
			t.Fatalf("Dim %d: %v", tc.dim, err)
		}
		if st.Entries != tc.entries || st.Skipped != tc.skip || c.Len() != tc.entries {
			t.Errorf("Dim %d: restored %d, skipped %d, Len %d; want %d, %d, %d",
				tc.dim, st.Entries, st.Skipped, c.Len(), tc.entries, tc.skip, tc.entries)
		}
	}
}

// TestRegistrationBounds: RegisterFunction refuses a declared Dim past
// MaxKeyDim and more than MaxKeyTypes key types per function, in one
// call or across re-registrations, before it builds an index; refusing
// 2^20 key types allocates under 1 MiB.
func TestRegistrationBounds(t *testing.T) {
	c := New(Config{DisableDropout: true})
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k", Dim: MaxKeyDim + 1}); err == nil {
		t.Error("a Dim past MaxKeyDim registered")
	}
	if err := c.RegisterFunction("f", KeyTypeSpec{Name: "k", Dim: MaxKeyDim}); err != nil {
		t.Errorf("Dim MaxKeyDim: %v", err)
	}
	specs := make([]KeyTypeSpec, 1<<20)
	for i := range specs[:MaxKeyTypes+1] {
		specs[i] = KeyTypeSpec{Name: string(rune('A' + i))}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := c.RegisterFunction("g", specs...)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("2^20 key types registered")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusing 2^20 key types allocated %d bytes", got)
	}
	if err := c.RegisterFunction("g", specs[:MaxKeyTypes+1]...); err == nil {
		t.Error("MaxKeyTypes+1 key types registered")
	}
	if err := c.RegisterFunction("g", specs[:MaxKeyTypes]...); err != nil {
		t.Fatalf("MaxKeyTypes key types: %v", err)
	}
	if err := c.RegisterFunction("g", specs[MaxKeyTypes]); err == nil {
		t.Error("a re-registration took g past MaxKeyTypes key types")
	}
	if _, err := c.keyIndexFor("g", specs[MaxKeyTypes].Name); !errors.Is(err, ErrUnknownKeyType) {
		t.Errorf("the refused key type is registered: %v", err)
	}
}

// TestOneDoorToTheIndex parses the package's non-test files and fails on
// any mutation of a key index's idx outside keyIndex.insert and
// keyIndex.remove: each changes it under the write lock, and insert
// admits every key through the length door, restored ones included.
func TestOneDoorToTheIndex(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	doors := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			door := fn.Recv != nil && (fn.Name.Name == "insert" || fn.Name.Name == "remove") && name == "door.go"
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				var what string
				if x, ok := n.(*ast.CallExpr); ok {
					if sel, ok := x.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Insert" || sel.Sel.Name == "Remove") && selects(sel.X, "idx") {
						what = "idx." + sel.Sel.Name
					}
				}
				if what == "" {
					return true
				}
				if door {
					doors++
				} else {
					t.Errorf("%s: %s in %s: key indices are mutated only by keyIndex.insert and keyIndex.remove", fset.Position(n.Pos()), what, fn.Name.Name)
				}
				return true
			})
		}
	}
	if doors != 2 {
		t.Errorf("found %d index mutations inside insert and remove, want 2 (idx.Insert, idx.Remove): has the door moved?", doors)
	}
}

// selects reports whether e is a selector expression ending in .name.
func selects(e ast.Expr, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}

// TestNoMissMemo keeps a put's neighbour a probe of the index: no
// non-test file under internal/ may declare the retired miss memo
// (missMemo, memoHook) or its replay (Replayer, ReplayInsert), and
// keyIndex has no mutation epoch or log to replay from.
func TestNoMissMemo(t *testing.T) {
	checkRetired(t, []string{"missMemo", "memoHook", "Replayer", "ReplayInsert"}, func(field *ast.Field) string {
		for _, id := range field.Names {
			if id.Name == "epoch" || id.Name == "log" {
				return "a field " + id.Name
			}
		}
		return ""
	})
}

// TestNoSecondKeyTable keeps the entry the one table from id to key: no
// non-test file under internal/ may declare the retired key resolver
// (KeyResolver, ResolverSetter, SetKeyResolver, setResolver), the PQ
// store's bounded cache of full keys (shrinkFull, KeepRecent), the key
// stores that held keys by id beside an index's own layout (vecStore,
// flatStore, pqStore, and reRank, which read them back) or the IVF-PQ
// kind that needed them (NewIVFPQ, KindIVFPQ), and keyIndex has no
// map-typed field to hold keys by id again.
func TestNoSecondKeyTable(t *testing.T) {
	retired := []string{
		"KeyResolver", "ResolverSetter", "SetKeyResolver", "setResolver", "shrinkFull", "KeepRecent",
		"vecStore", "flatStore", "pqStore", "reRank", "NewIVFPQ", "KindIVFPQ",
	}
	checkRetired(t, retired, func(field *ast.Field) string {
		if _, isMap := field.Type.(*ast.MapType); isMap {
			return "a map-typed field"
		}
		return ""
	})
}

// TestOneDistanceKernel keeps package vec the one place that sums a
// distance: no non-test file under internal/ may declare the retired
// per-index classifications of a metric (boxNorm, boxNormOf, adcKind,
// adcKindFor), IVF's second k-means (kmeansCentroids) or HNSW's
// hand-rolled growth (extend), and no non-test file in internal/index or
// internal/core may hold a loop that adds a rounded product,
// float64(a * b), to a sum, by += or -= or as s = s + ....
func TestOneDistanceKernel(t *testing.T) {
	retired := []string{"kmeansCentroids", "adcKind", "adcKindFor", "boxNorm", "boxNormOf", "extend"}
	checkRetired(t, retired, func(*ast.Field) string { return "" })
	product := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			fn, ok := call.Fun.(*ast.Ident)
			arg, isBin := ast.Unparen(call.Args[0]).(*ast.BinaryExpr)
			if ok && fn.Name == "float64" && isBin && arg.Op == token.MUL {
				found = true
			}
			return !found
		})
		return found
	}
	sums := func(as *ast.AssignStmt) bool {
		switch {
		case len(as.Lhs) != 1 || len(as.Rhs) != 1:
			return false
		case as.Tok == token.ADD_ASSIGN || as.Tok == token.SUB_ASSIGN:
			return product(as.Rhs[0])
		case as.Tok != token.ASSIGN:
			return false
		}
		bin, ok := as.Rhs[0].(*ast.BinaryExpr)
		lhs := types.ExprString(as.Lhs[0])
		return ok && (bin.Op == token.ADD || bin.Op == token.SUB) &&
			(types.ExprString(bin.X) == lhs || types.ExprString(bin.Y) == lhs) && product(bin)
	}
	fset := token.NewFileSet()
	for _, dir := range []string{"../index", "."} {
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[token.Pos]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch loop := n.(type) {
				case *ast.ForStmt:
					body = loop.Body
				case *ast.RangeStmt:
					body = loop.Body
				default:
					return true
				}
				ast.Inspect(body, func(n ast.Node) bool {
					if as, ok := n.(*ast.AssignStmt); ok && !seen[as.Pos()] && sums(as) {
						seen[as.Pos()] = true
						t.Errorf("%s: a loop sums its own products; score through package vec", fset.Position(as.Pos()))
					}
					return true
				})
				return true
			})
		}
	}
}

// TestNoRangeSearch keeps one query path through an index: no non-test
// file under internal/ may declare the retired range search
// (RadiusSearcher, Radius, IVF's cellRadius) or the second k-NN method
// (KNearestProbed), and index.Index keeps its nine methods.
// InvalidateRadius walks the entries instead, exactly for every kind.
func TestNoRangeSearch(t *testing.T) {
	checkRetired(t, []string{"RadiusSearcher", "Radius", "KNearestProbed", "cellRadius"}, func(*ast.Field) string { return "" })
	if n := reflect.TypeOf((*index.Index)(nil)).Elem().NumMethod(); n != 9 {
		t.Errorf("index.Index has %d methods, want 9", n)
	}
}

// checkRetired fails on any declaration under internal/, outside test
// files, of a name in retired (function, type, value or field) and on
// any field of keyIndex that banned describes.
func checkRetired(t *testing.T, retired []string, banned func(*ast.Field) string) {
	t.Helper()
	names := map[string]bool{}
	for _, name := range retired {
		names[name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		declares := func(id *ast.Ident) {
			if names[id.Name] {
				t.Errorf("%s declares %s", fset.Position(id.Pos()), id.Name)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declares(n.Name)
			case *ast.TypeSpec:
				declares(n.Name)
				if st, ok := n.Type.(*ast.StructType); ok && n.Name.Name == "keyIndex" {
					for _, field := range st.Fields.List {
						if what := banned(field); what != "" {
							t.Errorf("%s: keyIndex has %s", fset.Position(field.Pos()), what)
						}
					}
				}
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declares(id)
				}
			case *ast.Field:
				for _, id := range n.Names {
					declares(id)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneCloneOfEachKey keeps one owned copy of each key. In this
// package, keyIndex.insert clones the key once, hands that clone to the
// index and returns it, no caller of insert clones the key it passes,
// and every caller keeps what insert returns in the entry's owners. In
// internal/index, no Insert path copies the key it
// was given into a fresh slice: the test follows the key from every
// Insert through the package's calls (by name, so every method of that
// name counts) and fails on a Clone of it, a slices.Clone, or a copy or
// append of it into nil, make(...) or a literal. Copying it into a scan
// row an index already holds (h.rows, a leaf's rows) is allowed.
func TestOneCloneOfEachKey(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(glob string) []*ast.File {
		names, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		return files
	}

	// Core: the door clones once, and passes that clone on.
	doors := 0
	for _, f := range parse("*.go") {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fn.Recv != nil && fn.Name.Name == "insert" {
				doors++
				checkDoorClones(t, fset, fn)
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 2 {
					return true
				}
				if name, isSel := callee(call); isSel && name == "insert" {
					if freshCopy(call.Args[1], nil, func(ast.Expr) bool { return true }) {
						t.Errorf("%s: %s clones a key on its way to keyIndex.insert, which clones it", fset.Position(call.Pos()), fn.Name.Name)
					}
					if !keptByOwner(fn.Body, call) {
						t.Errorf("%s: %s does not keep what keyIndex.insert returns as an owner's key", fset.Position(call.Pos()), fn.Name.Name)
					}
				}
				return true
			})
		}
	}
	if doors != 1 {
		t.Errorf("found %d keyIndex.insert methods, want 1", doors)
	}

	// Index: follow each Insert's key.
	funcs := map[string][]*ast.FuncDecl{}
	for _, f := range parse("../index/*.go") {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				funcs[fn.Name.Name] = append(funcs[fn.Name.Name], fn)
			}
		}
	}
	tainted := map[*ast.FuncDecl]map[string]bool{}
	var work []*ast.FuncDecl
	taint := func(fn *ast.FuncDecl, param int) {
		i := 0
		for _, field := range fn.Type.Params.List {
			for _, name := range field.Names {
				if i == param && !tainted[fn][name.Name] {
					if tainted[fn] == nil {
						tainted[fn] = map[string]bool{}
					}
					tainted[fn][name.Name] = true
					work = append(work, fn)
				}
				i++
			}
		}
	}
	for _, fn := range funcs["Insert"] {
		taint(fn, 1)
	}
	if len(work) != 7 {
		t.Errorf("found %d Insert methods in internal/index, want 7 (hash, HNSW, IVF, k-d tree, linear, LSH, tree map)", len(work))
	}
	reported := map[token.Pos]bool{} // a function is walked again for each newly tainted parameter
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		keys := tainted[fn]
		mentions := func(e ast.Expr) bool { return mentionsAny(e, keys) }
		// What the key flows into within the body; twice covers an
		// assignment that precedes its source in the text.
		for pass := 0; pass < 2; pass++ {
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range x.Lhs {
						id, ok := lhs.(*ast.Ident)
						if ok && (len(x.Rhs) == 1 && mentions(x.Rhs[0]) || len(x.Rhs) == len(x.Lhs) && mentions(x.Rhs[i])) {
							keys[id.Name] = true
						}
					}
				case *ast.RangeStmt:
					if mentions(x.X) {
						for _, e := range []ast.Expr{x.Key, x.Value} {
							if id, ok := e.(*ast.Ident); ok {
								keys[id.Name] = true
							}
						}
					}
				}
				return true
			})
		}
		fresh := freshNames(fn.Body)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if freshCopy(call, fresh, mentions) && !reported[call.Pos()] {
				reported[call.Pos()] = true
				t.Errorf("%s: %s copies the key an Insert was given into a fresh slice; the index borrows it", fset.Position(call.Pos()), fn.Name.Name)
			}
			if name, _ := callee(call); name != "" {
				for i, arg := range call.Args {
					if mentions(arg) {
						for _, g := range funcs[name] {
							taint(g, i)
						}
					}
				}
			}
			return true
		})
	}
}

// checkDoorClones holds keyIndex.insert to one Clone, which is what it
// passes to idx.Insert and what it returns (nil aside).
func checkDoorClones(t *testing.T, fset *token.FileSet, fn *ast.FuncDecl) {
	t.Helper()
	var owned string
	clones, uses := 0, 0
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if isClone(x) {
				clones++
			}
		case *ast.AssignStmt:
			call, isCall := x.Rhs[0].(*ast.CallExpr)
			id, isID := x.Lhs[0].(*ast.Ident)
			if isCall && isID && isClone(call) {
				owned = id.Name
			}
		}
		return true
	})
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		var passed ast.Expr
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Insert" && selects(sel.X, "idx") && len(x.Args) == 2 {
				passed = x.Args[1]
			}
		case *ast.ReturnStmt:
			if len(x.Results) == 1 {
				if id, ok := x.Results[0].(*ast.Ident); !ok || id.Name != "nil" {
					passed = x.Results[0]
				}
			}
		}
		if passed != nil {
			uses++
			if id, ok := passed.(*ast.Ident); !ok || owned == "" || id.Name != owned {
				t.Errorf("%s: keyIndex.insert passes on something other than its clone of the key", fset.Position(passed.Pos()))
			}
		}
		return true
	})
	if clones != 1 || uses != 2 {
		t.Errorf("%s: keyIndex.insert clones %d times and passes a key on %d times, want 1 and 2 (idx.Insert, return)", fset.Position(fn.Pos()), clones, uses)
	}
}

// keptByOwner reports whether body assigns the result of the insert
// call to a name that an owner literal in body takes as its key.
func keptByOwner(body *ast.BlockStmt, insert *ast.CallExpr) bool {
	var result string
	ast.Inspect(body, func(n ast.Node) bool {
		if x, ok := n.(*ast.AssignStmt); ok && len(x.Lhs) == 1 && len(x.Rhs) == 1 && x.Rhs[0] == insert {
			if id, ok := x.Lhs[0].(*ast.Ident); ok {
				result = id.Name
			}
		}
		return result == ""
	})
	kept := false
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return !kept
		}
		if typ, ok := lit.Type.(*ast.Ident); ok && typ.Name == "owner" {
			for _, elt := range lit.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok && isIdent(kv.Key, "key") && isIdent(kv.Value, result) {
					kept = true
				}
			}
		}
		return !kept
	})
	return result != "" && kept
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// isClone reports whether call calls a method or function named Clone.
func isClone(call *ast.CallExpr) bool {
	name, _ := callee(call)
	return name == "Clone"
}

// callee names what call calls: a function, or a method after its
// selector (isSel).
func callee(call *ast.CallExpr) (name string, isSel bool) {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name, false
	case *ast.SelectorExpr:
		return f.Sel.Name, true
	}
	return "", false
}

// freshCopy reports whether e copies a value that mentions accepts into
// a new slice: v.Clone(), slices.Clone(v), append(fresh, v...) or
// copy(fresh, v), where fresh is nil, a conversion of nil, make(...), a
// composite literal, or a name in names that the body assigns one of
// those to.
func freshCopy(e ast.Expr, names map[string]bool, mentions func(ast.Expr) bool) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	name, isSel := callee(call)
	switch {
	case name == "Clone" && isSel && len(call.Args) == 0:
		return mentions(call.Fun.(*ast.SelectorExpr).X)
	case name == "Clone" && len(call.Args) == 1:
		return mentions(call.Args[0])
	case (name == "append" && call.Ellipsis.IsValid() || name == "copy") && !isSel && len(call.Args) == 2:
		return isFresh(call.Args[0], names) && mentions(call.Args[1])
	}
	return false
}

// isFresh reports whether e is a slice nothing else holds yet.
func isFresh(e ast.Expr, names map[string]bool) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name == "nil" || names[x.Name]
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if name, isSel := callee(x); name == "make" && !isSel {
			return true
		}
		return len(x.Args) == 1 && isFresh(x.Args[0], names) // a conversion
	}
	return false
}

// freshNames are the names body assigns a fresh slice to.
func freshNames(body *ast.BlockStmt) map[string]bool {
	names := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if x, ok := n.(*ast.AssignStmt); ok && len(x.Lhs) == len(x.Rhs) {
			for i, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && isFresh(x.Rhs[i], names) {
					names[id.Name] = true
				}
			}
		}
		return true
	})
	return names
}

// mentionsAny reports whether e reads a variable named in names. A
// selector's field name and a literal's field key are not variables.
func mentionsAny(e ast.Expr, names map[string]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			found = found || mentionsAny(x.X, names)
			return false
		case *ast.KeyValueExpr:
			found = found || mentionsAny(x.Value, names)
			return false
		case *ast.Ident:
			found = found || names[x.Name]
		}
		return !found
	})
	return found
}
