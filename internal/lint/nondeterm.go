// The nondeterm analyzer: no entropy sources in the packages that feed
// report bytes or the prune.Fingerprint and prune.AppendInputSignature
// signatures. The identity contract (serial ≡ parallel ≡ cached ≡
// warm-store, splice ≡ cold) only holds if nothing on those paths reads
// the wall clock, the global math/rand source, or process identity.
package lint

import (
	"go/ast"
	"go/types"
)

// nondetermPaths are the packages whose outputs land in report bytes or in
// cache/signature keys: the engine and report assembly (root package), the
// numeric pipeline, the parsers/serializers whose formatting is canonical,
// and the observability layer whose counter totals must be deterministic.
var nondetermPaths = []string{
	"xtverify",
	"internal/prune",
	"internal/sympvl",
	"internal/romsim",
	"internal/glitch",
	"internal/analytic",
	"internal/obs",
	"internal/spef",
	"internal/deflite",
}

// entropyFuncs maps package path -> function names whose results vary per
// run: wall-clock reads, the globally-seeded math/rand convenience
// functions, and process-identity lookups.
var entropyFuncs = map[string]map[string]bool{
	"time": {
		"Now":   true,
		"Since": true,
		"Until": true,
	},
	"math/rand": {
		"Int": true, "Intn": true, "Int31": true, "Int31n": true,
		"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
		"Float32": true, "Float64": true, "ExpFloat64": true,
		"NormFloat64": true, "Perm": true, "Shuffle": true,
		"Read": true, "Seed": true,
	},
	"os": {
		"Getpid": true, "Getppid": true, "Hostname": true, "Environ": true,
	},
}

// NonDeterm flags wall-clock, unseeded-rand and process-identity reads in
// the packages that feed report bytes or fingerprint/signature keys.
var NonDeterm = &Analyzer{
	Name:      "nondeterm",
	Directive: "wallclock",
	Doc: "flag entropy sources in report/fingerprint-feeding packages\n\n" +
		"time.Now/Since/Until, the globally-seeded math/rand functions and\n" +
		"os.Getpid-style process identity make output run-dependent. Use\n" +
		"deterministic inputs (seeded rand.New, monotonic counters) or — for\n" +
		"sanctioned run-dependent data like span durations, which the docs\n" +
		"explicitly exclude from the identity contract — justify with\n" +
		"//xtlint:wallclock <reason>.",
	Run: runNonDeterm,
}

func runNonDeterm(pass *Pass) {
	if !identityCriticalPath(pass.Path, nondetermPaths) {
		return
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue // tests may time and randomize freely
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			if names, ok := entropyFuncs[fn.Pkg().Path()]; ok && names[fn.Name()] {
				pass.Reportf(call.Pos(), "%s.%s in identity-critical package %s: output must not depend on run entropy; use deterministic inputs or justify with //xtlint:wallclock <reason>",
					fn.Pkg().Name(), fn.Name(), pass.Path)
			}
			return true
		})
	}
}
