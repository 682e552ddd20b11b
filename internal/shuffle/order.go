// The canonical key order: one order per key type, shared by every
// place that orders keys — the seal sort, the k-way merge and
// compaction heap, range planning and clamping, and the engine's and
// proc driver's global output sort. It depends only on the type, so
// every execution mode sorts alike.
//
//   - The built-in number kinds and string keep their direct paths:
//     slices.Sort on the concrete type, cmp.Compare in the merge.
//   - Every other type built from ordered scalars — bool, any int,
//     uint, float or complex kind, string, named types of those, and
//     structs and arrays of such types nested to any depth — is ordered
//     lexicographically: fields in declaration order (blank fields
//     skipped, as == skips them), array elements in index order. The
//     order is compiled once per type, the way runfile's fixed-width
//     codec compiles its plans: a reflection walk flattens the type to
//     (offset, kind) ops, cached per reflect.Type, and a comparison
//     replays them with unsafe loads. Floats compare as cmp.Compare
//     does (NaN first, -0 equal to +0), so the order is a strict weak
//     order; complex numbers compare by real, then imaginary part.
//   - A key type holding a pointer, interface or channel anywhere has
//     no canonical order and is refused before a job starts
//     (CheckKeyType). Since NaN keys fail at Emit, two admitted keys
//     compare equal exactly when they are ==, so every key is its own
//     order class.
package shuffle

import (
	"cmp"
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"strings"
	"sync"
	"unsafe"
)

// orderOp compares one scalar field at offset off of the key.
type orderOp struct {
	off  uintptr
	kind reflect.Kind
}

// wordOp compares one 8-byte integer field at offset off as a uint64
// after XOR with flip: the sign bit for signed kinds, which maps
// two's-complement order onto unsigned order.
type wordOp struct {
	off  uintptr
	flip uint64
}

// keyOrder is the compiled order of one key type. When every field is
// an 8-byte integer — the common shape of composite reducer keys —
// words holds the whole plan and the comparison loop has no per-field
// dispatch; otherwise words is nil and ops drives a per-kind switch.
// (A per-op function value would avoid the switch, but keys passed
// through one escape to the heap: an allocation per comparison.)
type keyOrder struct {
	words []wordOp
	ops   []orderOp
}

// keyOrders caches one order per type; a stored nil records that the
// type was inspected and has no order.
var keyOrders sync.Map // reflect.Type -> *keyOrder

// orderOf returns K's compiled order, or nil when K has none. The
// first call per type pays the reflection walk; later calls are one
// cache load.
func orderOf[K any]() *keyOrder {
	t := reflect.TypeFor[K]()
	if o, ok := keyOrders.Load(t); ok {
		return o.(*keyOrder)
	}
	o := compileOrder(t)
	keyOrders.Store(t, o)
	return o
}

// CheckKeyType returns nil when K has a canonical order, and otherwise
// an error naming K. Every entry point that runs a job over keys of
// type K calls it before any work starts; New panics with the same
// error.
func CheckKeyType[K comparable]() error {
	if orderOf[K]() != nil {
		return nil
	}
	return fmt.Errorf("shuffle: key type %v has no canonical order: it holds a pointer, interface or channel", reflect.TypeFor[K]())
}

func compileOrder(t reflect.Type) *keyOrder {
	ops, ok := appendOrderOps(nil, t, 0)
	if !ok {
		return nil
	}
	o := &keyOrder{ops: ops}
	words := make([]wordOp, 0, len(ops))
	for _, op := range ops {
		switch {
		case op.kind == reflect.Int64 || op.kind == reflect.Int && bits.UintSize == 64:
			words = append(words, wordOp{op.off, 1 << 63})
		case op.kind == reflect.Uint64 || (op.kind == reflect.Uint || op.kind == reflect.Uintptr) && bits.UintSize == 64:
			words = append(words, wordOp{op.off, 0})
		default:
			return o
		}
	}
	o.words = words
	return o
}

// appendOrderOps flattens t, based at offset base, onto ops in
// comparison order; ok is false when t has a part with no order.
func appendOrderOps(ops []orderOp, t reflect.Type, base uintptr) (_ []orderOp, ok bool) {
	switch k := t.Kind(); k {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128, reflect.String:
		return append(ops, orderOp{base, k}), true
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Name == "_" {
				continue
			}
			if ops, ok = appendOrderOps(ops, f.Type, base+f.Offset); !ok {
				return nil, false
			}
		}
		return ops, true
	case reflect.Array:
		elem := t.Elem()
		for i := 0; i < t.Len(); i++ {
			if ops, ok = appendOrderOps(ops, elem, base+uintptr(i)*elem.Size()); !ok {
				return nil, false
			}
		}
		return ops, true
	default:
		return nil, false
	}
}

// compare orders the keys at a and b, both of the order's type:
// negative, zero or positive as a sorts before, with or after b.
func (o *keyOrder) compare(a, b unsafe.Pointer) int {
	if o.words != nil {
		for _, w := range o.words {
			x := *(*uint64)(unsafe.Add(a, w.off)) ^ w.flip
			y := *(*uint64)(unsafe.Add(b, w.off)) ^ w.flip
			if x != y {
				if x < y {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	for _, op := range o.ops {
		if c := compareScalar(op.kind, unsafe.Add(a, op.off), unsafe.Add(b, op.off)); c != 0 {
			return c
		}
	}
	return 0
}

// compareScalar orders two scalars of kind k.
func compareScalar(k reflect.Kind, a, b unsafe.Pointer) int {
	switch k {
	case reflect.Bool:
		x, y := *(*bool)(a), *(*bool)(b)
		if x == y {
			return 0
		}
		if y {
			return -1
		}
		return 1
	case reflect.Int:
		return cmp.Compare(*(*int)(a), *(*int)(b))
	case reflect.Int8:
		return cmp.Compare(*(*int8)(a), *(*int8)(b))
	case reflect.Int16:
		return cmp.Compare(*(*int16)(a), *(*int16)(b))
	case reflect.Int32:
		return cmp.Compare(*(*int32)(a), *(*int32)(b))
	case reflect.Int64:
		return cmp.Compare(*(*int64)(a), *(*int64)(b))
	case reflect.Uint:
		return cmp.Compare(*(*uint)(a), *(*uint)(b))
	case reflect.Uint8:
		return cmp.Compare(*(*uint8)(a), *(*uint8)(b))
	case reflect.Uint16:
		return cmp.Compare(*(*uint16)(a), *(*uint16)(b))
	case reflect.Uint32:
		return cmp.Compare(*(*uint32)(a), *(*uint32)(b))
	case reflect.Uint64:
		return cmp.Compare(*(*uint64)(a), *(*uint64)(b))
	case reflect.Uintptr:
		return cmp.Compare(*(*uintptr)(a), *(*uintptr)(b))
	case reflect.Float32:
		return cmp.Compare(*(*float32)(a), *(*float32)(b))
	case reflect.Float64:
		return cmp.Compare(*(*float64)(a), *(*float64)(b))
	case reflect.Complex64:
		x, y := *(*complex64)(a), *(*complex64)(b)
		if c := cmp.Compare(real(x), real(y)); c != 0 {
			return c
		}
		return cmp.Compare(imag(x), imag(y))
	case reflect.Complex128:
		x, y := *(*complex128)(a), *(*complex128)(b)
		if c := cmp.Compare(real(x), real(y)); c != 0 {
			return c
		}
		return cmp.Compare(imag(x), imag(y))
	default: // reflect.String; compileOrder admits no other kind
		return strings.Compare(*(*string)(a), *(*string)(b))
	}
}

// SortKeys sorts keys in the package's canonical deterministic order:
// numeric order for the built-in integer and float kinds and byte order
// for strings (slices.Sort on the concrete type), and the compiled
// lexicographic order for named scalars, structs and arrays (see the
// file comment). It panics for a key type CheckKeyType refuses.
func SortKeys[K comparable](keys []K) {
	switch ks := any(keys).(type) {
	case []int:
		slices.Sort(ks)
	case []int8:
		slices.Sort(ks)
	case []int16:
		slices.Sort(ks)
	case []int32:
		slices.Sort(ks)
	case []int64:
		slices.Sort(ks)
	case []uint:
		slices.Sort(ks)
	case []uint8:
		slices.Sort(ks)
	case []uint16:
		slices.Sort(ks)
	case []uint32:
		slices.Sort(ks)
	case []uint64:
		slices.Sort(ks)
	case []uintptr:
		slices.Sort(ks)
	case []float32:
		slices.Sort(ks)
	case []float64:
		slices.Sort(ks)
	case []string:
		slices.Sort(ks)
	default:
		slices.SortFunc(keys, nativeCompare[K]())
	}
}

// nativeCompare returns the typed three-way order underlying SortKeys:
// the direct comparison for the built-in number kinds and strings, the
// compiled order for every other orderable type. It panics for a key
// type CheckKeyType refuses. It must agree with the order runs were
// written in, i.e. with SortKeys; the test
// TestNativeCompareAgreesWithSortKeys pins that invariant.
func nativeCompare[K comparable]() func(a, b K) int {
	var zero K
	switch any(zero).(type) {
	case int:
		return func(a, b K) int { return cmp.Compare(any(a).(int), any(b).(int)) }
	case int8:
		return func(a, b K) int { return cmp.Compare(any(a).(int8), any(b).(int8)) }
	case int16:
		return func(a, b K) int { return cmp.Compare(any(a).(int16), any(b).(int16)) }
	case int32:
		return func(a, b K) int { return cmp.Compare(any(a).(int32), any(b).(int32)) }
	case int64:
		return func(a, b K) int { return cmp.Compare(any(a).(int64), any(b).(int64)) }
	case uint:
		return func(a, b K) int { return cmp.Compare(any(a).(uint), any(b).(uint)) }
	case uint8:
		return func(a, b K) int { return cmp.Compare(any(a).(uint8), any(b).(uint8)) }
	case uint16:
		return func(a, b K) int { return cmp.Compare(any(a).(uint16), any(b).(uint16)) }
	case uint32:
		return func(a, b K) int { return cmp.Compare(any(a).(uint32), any(b).(uint32)) }
	case uint64:
		return func(a, b K) int { return cmp.Compare(any(a).(uint64), any(b).(uint64)) }
	case uintptr:
		return func(a, b K) int { return cmp.Compare(any(a).(uintptr), any(b).(uintptr)) }
	case float32:
		return func(a, b K) int { return cmp.Compare(any(a).(float32), any(b).(float32)) }
	case float64:
		return func(a, b K) int { return cmp.Compare(any(a).(float64), any(b).(float64)) }
	case string:
		return func(a, b K) int { return strings.Compare(any(a).(string), any(b).(string)) }
	}
	o := orderOf[K]()
	if o == nil {
		panic(CheckKeyType[K]())
	}
	return func(a, b K) int { return o.compare(unsafe.Pointer(&a), unsafe.Pointer(&b)) }
}
