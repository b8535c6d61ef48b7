package exp

import (
	"context"
	"io"
	"reflect"
	"testing"
)

// nonZeroValue fills v with a non-zero value of its type, so the cache
// key test can perturb every Options field generically. It fails the
// test on kinds it has never seen: a new field of a new kind must be
// added here (and either keyed or listed neutral).
func nonZeroValue(t *testing.T, v reflect.Value, name string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(7.5)
	case reflect.String:
		v.SetString("nonzero")
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		nonZeroValue(t, s.Index(0), name)
		v.Set(s)
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func(args []reflect.Value) []reflect.Value {
			out := make([]reflect.Value, v.Type().NumOut())
			for i := range out {
				out[i] = reflect.Zero(v.Type().Out(i))
			}
			return out
		}))
	case reflect.Interface:
		switch v.Type() {
		case reflect.TypeOf((*io.Writer)(nil)).Elem():
			v.Set(reflect.ValueOf(io.Discard))
			return
		case reflect.TypeOf((*context.Context)(nil)).Elem():
			v.Set(reflect.ValueOf(context.Background()))
			return
		}
		t.Fatalf("field %s: no non-zero recipe for interface %v — extend nonZeroValue", name, v.Type())
	default:
		t.Fatalf("field %s: no non-zero recipe for kind %v — extend nonZeroValue", name, v.Kind())
	}
}

// TestCacheKeyCoversOptions guards the sweep cache against silent
// aliasing: every Options field must either be listed in
// cacheNeutralOptionFields (documented result-neutral) or perturb the
// cache key when set. A new result-affecting field that someone forgot
// to think about fails the non-neutral leg; a renamed or removed field
// fails the staleness leg.
func TestCacheKeyCoversOptions(t *testing.T) {
	typ := reflect.TypeOf(Options{})
	fieldNames := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		fieldNames[typ.Field(i).Name] = true
	}
	for name := range cacheNeutralOptionFields {
		if !fieldNames[name] {
			t.Errorf("cacheNeutralOptionFields lists %q, which is not an Options field", name)
		}
	}

	f := Figures[0]
	base := cacheKey(f, Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var o Options
		nonZeroValue(t, reflect.ValueOf(&o).Elem().Field(i), name)
		got := cacheKey(f, o)
		if _, neutral := cacheNeutralOptionFields[name]; neutral {
			if got != base {
				t.Errorf("neutral field %s changed the cache key; drop it from cacheNeutralOptionFields or fix cacheKey", name)
			}
			continue
		}
		if got == base {
			t.Errorf("setting Options.%s did not change the cache key: key the field in cacheKey or document it in cacheNeutralOptionFields", name)
		}
	}
}

// TestCacheKeyDistinguishesFigures: the figure identity itself must be
// part of the key.
func TestCacheKeyDistinguishesFigures(t *testing.T) {
	if cacheKey(Figures[0], Options{}) == cacheKey(Figures[1], Options{}) {
		t.Fatal("two different figures share a cache key")
	}
}
