package wire

import (
	"encoding/json"
	"reflect"
	"testing"

	ps "repro"
)

// setLeaf assigns a non-zero value to a scalar leaf.
func setLeaf(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1.5)
	case reflect.String:
		v.SetString("probe")
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("leaf %s has unhandled kind %s — extend the parity test", path, v.Kind())
	}
}

// leafPaths flattens a struct type into its scalar leaves. Each step is
// a field index, with -1 standing for "element 0" of a slice.
func leafPaths(t *testing.T, typ reflect.Type, steps []int, name string, out *[]struct {
	name  string
	steps []int
}) {
	t.Helper()
	switch typ.Kind() {
	case reflect.Slice:
		leafPaths(t, typ.Elem(), append(append([]int(nil), steps...), -1), name+"[0]", out)
	case reflect.Struct:
		// time.Duration is Int64 kind, so every struct here is a plain
		// metrics struct worth descending into.
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			prefix := name + "." + f.Name
			if name == "" {
				prefix = f.Name
			}
			leafPaths(t, f.Type, append(append([]int(nil), steps...), i), prefix, out)
		}
	default:
		*out = append(*out, struct {
			name  string
			steps []int
		}{name, steps})
	}
}

// TestEngineMetricsWireParity sets every exported EngineMetrics leaf to
// a non-zero value, one at a time, and asserts the marshaled wire
// Metrics changes — i.e. no engine counter can drift out of the wire
// format unnoticed.
func TestEngineMetricsWireParity(t *testing.T) {
	// Shape with one element per slice so nested leaves are reachable;
	// the baseline uses the same shape with all-zero leaves.
	shaped := func() ps.EngineMetrics {
		var m ps.EngineMetrics
		m.Shards = make([]ps.ShardStats, 1)
		m.SlotStages = make([]ps.StageStats, 1)
		return m
	}
	marshal := func(m ps.EngineMetrics) string {
		b, err := json.Marshal(MetricsFrom(m))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	base := marshal(shaped())

	var leaves []struct {
		name  string
		steps []int
	}
	leafPaths(t, reflect.TypeOf(ps.EngineMetrics{}), nil, "", &leaves)
	if len(leaves) < 25 {
		t.Fatalf("only %d leaves found — reflection walk broken?", len(leaves))
	}

	for _, leaf := range leaves {
		m := shaped()
		v := reflect.ValueOf(&m).Elem()
		for _, s := range leaf.steps {
			if s == -1 {
				v = v.Index(0)
			} else {
				v = v.Field(s)
			}
		}
		setLeaf(t, v, leaf.name)
		if marshal(m) == base {
			t.Errorf("EngineMetrics.%s does not surface in wire.Metrics — MetricsFrom dropped it", leaf.name)
		}
	}
}
