package core_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/log4j"
	"repro/internal/metrics"
)

// This file is the property-test satellite of the fast-path equivalence
// proof: every concrete message shape the system can produce — the
// manifest examples and instantiations of every emitter template in the
// simulated frameworks — is replayed through the byte-level matcher and
// the regex reference, which must mine identical events.

// mineBoth parses one formatted line with the fast parser and the
// regexp reference and asserts identical events and warnings, returning
// the fast run's registry for counter assertions.
func mineBoth(t *testing.T, name, raw string) ([]core.Event, *metrics.Registry) {
	t.Helper()
	p := core.NewParser()
	reg := metrics.NewRegistry()
	p.Instrument(reg)
	if err := p.ParseReader(name, strings.NewReader(raw+"\n")); err != nil {
		t.Fatalf("ParseReader: %v", err)
	}
	rp, err := core.ParseReference(name, strings.NewReader(raw+"\n"), nil)
	if err != nil {
		t.Fatalf("ParseReference: %v", err)
	}
	fe, re := p.Events(), rp.Events()
	if !reflect.DeepEqual(fe, re) {
		t.Fatalf("line %q: fast mined %+v, regex %+v", raw, fe, re)
	}
	if fw, rw := p.Warnings(), rp.Warnings(); !reflect.DeepEqual(fw, rw) {
		t.Fatalf("line %q: warnings diverge: fast=%q regex=%q", raw, fw, rw)
	}
	return fe, reg
}

func sourceFile(t *testing.T, source string) string {
	t.Helper()
	switch source {
	case "rm":
		return "hadoop/yarn-resourcemanager.log"
	case "nm":
		return "hadoop/yarn-nodemanager-node1.log"
	case "container", "positional":
		return "containers/application_1499000000000_0001/container_1499000000000_0001_01_000002/stderr"
	}
	t.Fatalf("unknown source %q", source)
	return ""
}

// TestVocabExamplesDriveFastParser is the fast-path twin of
// TestVocabExamplesDriveParser: the manifest examples must mine the
// manifest Kind and bump the manifest metric under the byte-level
// matcher, and the reference implementation must agree event for event.
func TestVocabExamplesDriveFastParser(t *testing.T) {
	vocab, err := analysis.DefaultVocab()
	if err != nil {
		t.Fatalf("DefaultVocab: %v", err)
	}
	for _, m := range vocab.Messages {
		t.Run(m.Name, func(t *testing.T) {
			raw := log4j.Line{
				TimeMS:  1499000000123,
				Level:   log4j.Info,
				Class:   m.Class,
				Message: m.Example,
			}.Format()
			evs, reg := mineBoth(t, sourceFile(t, m.Source), raw)
			found := false
			for _, e := range evs {
				if e.Kind.String() == m.Kind {
					found = true
				}
			}
			if !found {
				t.Fatalf("example %q mined %+v, want kind %s", m.Example, evs, m.Kind)
			}
			if m.Metric != "" {
				if got := reg.Counter("core_parser_hits_total", "regex", m.Metric).Value(); got == 0 {
					t.Errorf("example %q did not increment core_parser_hits_total{regex=%q}", m.Example, m.Metric)
				}
			}
		})
	}
}

// emitterTemplates syntactically collects every Infof/Warnf/Errorf
// format-string literal in the emitting framework packages — the full
// production-side vocabulary, including messages the miner ignores.
func emitterTemplates(t *testing.T) []string {
	t.Helper()
	var out []string
	fset := token.NewFileSet()
	for _, pkg := range []string{"yarn", "spark", "mapreduce", "docker", "hdfs"} {
		dir := filepath.Join("..", pkg)
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading %s: %v", dir, err)
		}
		for _, e := range ents {
			if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
			if err != nil {
				t.Fatalf("parsing %s: %v", e.Name(), err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "Infof", "Warnf", "Errorf":
				default:
					return true
				}
				if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						out = append(out, s)
					}
				}
				return true
			})
		}
	}
	return out
}

// instantiate renders a fmt template with ID-shaped sample values, one
// variant per sample row.
func instantiate(format string) []string {
	samples := [][]any{
		{"container_1499000000000_0001_01_000002", int64(7), 0.25},
		{"application_1499000000000_0003", int64(1499000000123), 1.0},
		{"node1.example.com:8041", int64(0), 0.0},
	}
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		j := i + 1
		for j < len(format) && strings.IndexByte("+-# 0123456789.", format[j]) >= 0 {
			j++
		}
		if j >= len(format) {
			return nil
		}
		if format[j] != '%' {
			verbs = append(verbs, format[j])
		}
		i = j
	}
	var out []string
	for _, row := range samples {
		var args []any
		for k, v := range verbs {
			switch v {
			case 'd', 'x', 'X', 'b', 'o':
				args = append(args, row[1])
			case 'f', 'F', 'e', 'E', 'g', 'G':
				args = append(args, row[2])
			case 't':
				args = append(args, k%2 == 0)
			default:
				args = append(args, row[0])
			}
		}
		s := fmt.Sprintf(format, args...)
		if strings.Contains(s, "%!") {
			return nil // exotic verb shape; skip rather than feed broken text
		}
		out = append(out, s)
	}
	return out
}

// TestEmitterTemplatesDriveBothParsers instantiates every emitter
// template in the tree and replays each rendering through both matcher
// implementations under every log source — the whole emittable
// vocabulary, mined identically.
func TestEmitterTemplatesDriveBothParsers(t *testing.T) {
	templates := emitterTemplates(t)
	if len(templates) < 20 {
		t.Fatalf("found only %d emitter templates; the extraction no longer covers the frameworks", len(templates))
	}
	sources := []string{"rm", "nm", "container"}
	classes := []string{
		"org.apache.hadoop.yarn.server.resourcemanager.rmcontainer.RMContainerImpl",
		"org.apache.spark.deploy.yarn.ApplicationMaster",
	}
	seen := map[string]bool{}
	for _, format := range templates {
		if seen[format] {
			continue
		}
		seen[format] = true
		for _, msg := range instantiate(format) {
			for _, src := range sources {
				for _, class := range classes {
					raw := log4j.Line{
						TimeMS:  1499000000123,
						Level:   log4j.Info,
						Class:   class,
						Message: msg,
					}.Format()
					mineBoth(t, sourceFile(t, src), raw)
				}
			}
		}
	}
	t.Logf("replayed %d distinct emitter templates through both matchers", len(seen))
}
