package spec

import (
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// TestEverySpecFieldIsSet holds the schema to the fields some committed
// spec sets: a settable leaf that no file under examples/specs/ or
// benchmark/specs/ sets has one value in use, so it belongs in the code
// as a constant, not in the draw space of every random spec.
func TestEverySpecFieldIsSet(t *testing.T) {
	t.Parallel()
	var docs []any
	for _, root := range []string{"../../examples/specs", "../../benchmark/specs"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".json") {
				return err
			}
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			var doc map[string]any
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			docs = append(docs, doc)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(docs) == 0 {
		t.Fatal("no committed specs")
	}
	var unset []string
	for _, path := range leafPaths(reflect.TypeOf(Spec{}), "") {
		set := false
		for _, doc := range docs {
			if hasPath(doc, strings.Split(path, ".")) {
				set = true
				break
			}
		}
		if !set {
			unset = append(unset, path)
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d spec fields are set by no committed spec (make each a constant, or commit a spec that varies it):\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
}

// TestPopulationReachesEveryTaker: every family whose rule accepts a
// population section must run differently when it changes, so a family
// that takes the section and drops it fails here. Flipping harvest
// none → full changes what the resolvers ask upstream, hence the report.
func TestPopulationReachesEveryTaker(t *testing.T) {
	t.Parallel()
	// The sections a family needs besides population; most need none.
	needs := map[string]string{"ddos": `, "paper": "H"`}
	for family, rule := range families {
		if !rule.population {
			continue
		}
		report := func(harvest string) string {
			s := mustParse(t, `{"version": 1, "name": "p", "family": "`+family+`",
				"engine": {"probes": 20}, "population": {"harvest": "`+harvest+`"}`+needs[family]+`}`)
			sc, cfg, err := Compile(s)
			if err != nil {
				t.Fatal(err)
			}
			out, err := experiment.Run(context.Background(), sc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := out.Report.WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}
		if report("none") == report("full") {
			t.Errorf("family %s: harvest none and full give the same report; the population section does nothing", family)
		}
	}
}

// leafPaths lists the JSON paths of every settable leaf under t: a
// struct field recurses unless its type decodes itself (Axis, Duration,
// ...), and a slice of structs contributes "name[]" segments.
func leafPaths(t reflect.Type, prefix string) []string {
	unmarshaler := reflect.TypeOf((*json.Unmarshaler)(nil)).Elem()
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		path := prefix + name
		switch {
		case reflect.PointerTo(ft).Implements(unmarshaler):
			out = append(out, path)
		case ft.Kind() == reflect.Struct:
			out = append(out, leafPaths(ft, path+".")...)
		case ft.Kind() == reflect.Slice && ft.Elem().Kind() == reflect.Struct:
			out = append(out, leafPaths(ft.Elem(), path+"[].")...)
		default:
			out = append(out, path)
		}
	}
	return out
}

// hasPath reports whether the decoded document sets the leaf at path; a
// "name[]" segment matches when any element of the list sets the rest.
func hasPath(v any, path []string) bool {
	if len(path) == 0 {
		return true
	}
	obj, ok := v.(map[string]any)
	if !ok {
		return false
	}
	key, isList := strings.CutSuffix(path[0], "[]")
	child, ok := obj[key]
	if !ok {
		return false
	}
	if !isList {
		return hasPath(child, path[1:])
	}
	list, _ := child.([]any)
	for _, el := range list {
		if hasPath(el, path[1:]) {
			return true
		}
	}
	return false
}
