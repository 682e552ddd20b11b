package shuffle

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// refCompare is the slow reference for the compiled order: a reflect
// walk comparing fields in declaration order (blank fields skipped)
// and array elements in index order, floats as cmp.Compare does.
func refCompare(a, b reflect.Value) int {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if a.Type().Field(i).Name == "_" {
				continue
			}
			if c := refCompare(a.Field(i), b.Field(i)); c != 0 {
				return c
			}
		}
		return 0
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if c := refCompare(a.Index(i), b.Index(i)); c != 0 {
				return c
			}
		}
		return 0
	case reflect.Bool:
		x, y := 0, 0
		if a.Bool() {
			x = 1
		}
		if b.Bool() {
			y = 1
		}
		return cmp.Compare(x, y)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return cmp.Compare(a.Int(), b.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return cmp.Compare(a.Uint(), b.Uint())
	case reflect.Float32, reflect.Float64:
		return cmp.Compare(a.Float(), b.Float())
	case reflect.Complex64, reflect.Complex128:
		if c := cmp.Compare(real(a.Complex()), real(b.Complex())); c != 0 {
			return c
		}
		return cmp.Compare(imag(a.Complex()), imag(b.Complex()))
	case reflect.String:
		return strings.Compare(a.String(), b.String())
	}
	panic("refCompare: unordered kind " + a.Kind().String())
}

func sign(c int) int { return cmp.Compare(c, 0) }

type orderName int16

type orderInner struct {
	F float64
	S string
	B bool
}

// orderKey nests every shape the compiled order walks: a named
// scalar, a struct, arrays of floats and of structs, a complex number,
// a blank field and an unexported one.
type orderKey struct {
	N   orderName
	In  orderInner
	Arr [2]float32
	C   complex64
	_   int32
	u   uint8
	Bs  [2]struct{ W int64 }
}

// wordKey takes the all-8-byte-integer plan.
type wordKey struct {
	G int
	R uint64
	A [2]int64
}

var (
	orderFloats  = []float64{math.NaN(), math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.5, 1, math.Inf(1)}
	orderStrings = []string{"", "a", "ab", "b", "a b"}
	orderInts    = []int64{math.MinInt64, -10, -1, 0, 1, 9, 10, math.MaxInt64}
)

// orderKeyFrom draws an orderKey from 9 bytes, mostly from small
// value alphabets so keys often tie field by field.
func orderKeyFrom(data []byte) orderKey {
	at := func(i int) int { return int(data[i]) }
	var k orderKey
	k.N = orderName(int16(at(0)%5) - 2)
	k.In = orderInner{F: orderFloats[at(1)%len(orderFloats)], S: orderStrings[at(2)%len(orderStrings)], B: at(3)%2 == 1}
	k.Arr = [2]float32{float32(orderFloats[at(4)%len(orderFloats)]), float32(orderFloats[at(5)%len(orderFloats)])}
	k.C = complex(k.Arr[1], k.Arr[0])
	k.u = uint8(at(6) % 3)
	k.Bs[0].W = orderInts[at(7)%len(orderInts)]
	k.Bs[1].W = orderInts[at(8)%len(orderInts)]
	return k
}

// wordKeyFrom draws a wordKey from 4 bytes.
func wordKeyFrom(data []byte) wordKey {
	at := func(i int) int64 { return orderInts[int(data[i])%len(orderInts)] }
	return wordKey{G: int(at(0)), R: uint64(at(1)), A: [2]int64{at(2), at(3)}}
}

// checkOrderTriple asserts the compiled order of K on a, b, c: it
// matches the reference, is reflexive and antisymmetric, agrees with
// == (keys that are == compare equal), and is transitive.
func checkOrderTriple[K comparable](t *testing.T, a, b, c K) {
	t.Helper()
	compare := nativeCompare[K]()
	ks := []K{a, b, c}
	for _, x := range ks {
		if compare(x, x) != 0 {
			t.Fatalf("compare(%+v, itself) != 0", x)
		}
		for _, y := range ks {
			got, want := sign(compare(x, y)), refCompare(reflect.ValueOf(x), reflect.ValueOf(y))
			if got != want {
				t.Fatalf("compare(%+v, %+v) = %d, reference %d", x, y, got, want)
			}
			if got != -sign(compare(y, x)) {
				t.Fatalf("compare(%+v, %+v) not antisymmetric", x, y)
			}
			if x == y && got != 0 {
				t.Fatalf("%+v == %+v but they compare %d", x, y, got)
			}
		}
	}
	for _, p := range [][3]K{{a, b, c}, {a, c, b}, {b, a, c}, {b, c, a}, {c, a, b}, {c, b, a}} {
		ab, bc, ac := compare(p[0], p[1]), compare(p[1], p[2]), compare(p[0], p[2])
		if ab <= 0 && bc <= 0 && (ac > 0 || ac == 0 && (ab < 0 || bc < 0)) {
			t.Fatalf("not transitive: %+v, %+v, %+v compare %d, %d, %d", p[0], p[1], p[2], ab, bc, ac)
		}
	}
}

func TestTypedKeyOrder(t *testing.T) {
	type cell struct{ I, J int }
	if o := orderOf[cell](); o == nil || o.words == nil {
		t.Fatal("struct{ I, J int } should compile to the 8-byte-word plan")
	}
	if o := orderOf[orderKey](); o == nil || o.words != nil {
		t.Fatal("orderKey should compile to the per-kind plan")
	}
	compare := nativeCompare[cell]()
	if compare(cell{9, 0}, cell{10, 0}) >= 0 || compare(cell{-1, 5}, cell{0, 0}) >= 0 || compare(cell{3, 4}, cell{3, 4}) != 0 {
		t.Error("struct{ I, J int } does not compare in numeric field order")
	}
	wc := nativeCompare[wordKey]()
	if wc(wordKey{R: math.MaxUint64}, wordKey{R: 1}) <= 0 || wc(wordKey{G: math.MinInt64}, wordKey{G: -1}) >= 0 {
		t.Error("word plan mishandles unsigned high bits or negative ints")
	}

	oc := nativeCompare[orderKey]()
	negZero := orderKey{In: orderInner{F: math.Copysign(0, -1)}}
	if oc(negZero, orderKey{}) != 0 {
		t.Error("-0 and +0 must compare equal")
	}
	nan := orderKey{In: orderInner{F: math.NaN()}}
	if oc(nan, nan) != 0 || oc(nan, orderKey{In: orderInner{F: math.Inf(-1)}}) >= 0 {
		t.Error("NaN must equal NaN and sort before -Inf")
	}
	if oc(orderKey{In: orderInner{F: 1}}, orderKey{In: orderInner{F: 1, S: "a"}}) >= 0 ||
		oc(orderKey{In: orderInner{S: "b"}}, orderKey{In: orderInner{S: "ab", B: true}}) <= 0 {
		t.Error("struct fields do not compare lexicographically in declaration order")
	}
	if oc(orderKey{u: 2}, orderKey{u: 1, Bs: [2]struct{ W int64 }{{5}}}) <= 0 {
		t.Error("unexported field must take part in the order")
	}
	if oc(orderKey{Arr: [2]float32{0, 1}}, orderKey{Arr: [2]float32{1, 0}}) >= 0 {
		t.Error("array elements do not compare in index order")
	}

	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 27)
	for i := 0; i < 2000; i++ {
		rng.Read(data)
		checkOrderTriple(t, orderKeyFrom(data[:9]), orderKeyFrom(data[9:18]), orderKeyFrom(data[18:]))
		checkOrderTriple(t, wordKeyFrom(data[:4]), wordKeyFrom(data[9:13]), wordKeyFrom(data[18:22]))
	}
}

// FuzzTypedKeyOrder checks the compiled order against the reflect
// reference on triples of nested keys — named scalars, strings, bools,
// floats with -0, +0 and NaN, arrays, blank and unexported fields —
// and on the 8-byte-word plan, asserting antisymmetry and
// transitivity on every triple.
func FuzzTypedKeyOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 3, 0, 4, 4, 1, 2, 3, 0, 7, 1, 1, 0, 0, 2, 2, 1})
	f.Add([]byte("negative zero and NaN tie here"))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append(data, make([]byte, 27)...)
		checkOrderTriple(t, orderKeyFrom(data[:9]), orderKeyFrom(data[9:18]), orderKeyFrom(data[18:27]))
		checkOrderTriple(t, wordKeyFrom(data[:4]), wordKeyFrom(data[9:13]), wordKeyFrom(data[18:22]))
	})
}

// TestSortKeysStructKeysAllocs: sorting struct keys through the
// compiled order costs at most the comparison closure — no formatted
// strings, no map, no per-comparison boxing.
func TestSortKeysStructKeysAllocs(t *testing.T) {
	type cell struct {
		Group int
		Rest  uint64
	}
	src := make([]cell, 10000)
	for i := range src {
		src[i] = cell{i % 13, uint64(i * 7919 % 10007)}
	}
	keys := make([]cell, len(src))
	SortKeys(keys) // compile and cache the order outside the count
	allocs := testing.AllocsPerRun(5, func() {
		copy(keys, src)
		SortKeys(keys)
	})
	if allocs > 1 {
		t.Errorf("SortKeys on %d struct keys: %.0f allocations, want at most 1", len(keys), allocs)
	}
	if !slices.IsSortedFunc(keys, func(a, b cell) int {
		return cmp.Or(cmp.Compare(a.Group, b.Group), cmp.Compare(a.Rest, b.Rest))
	}) {
		t.Error("SortKeys did not sort struct keys in field order")
	}
}
