// Package platform states the platform contract shared by every raw
// codec in the module: codec-v2 segment headers, WAL v2 headers and the
// wire handshake all pin the same facts — the host byte order and, for
// keys and values, the reflect kind and element width — because all
// three move fixed-width keys and values as native-endian memory dumps.
// A reader whose contract differs from the writer's refuses the data
// rather than reinterpreting its bytes.
package platform

import (
	"encoding/binary"
	"reflect"
	"unsafe"
)

// Endian returns this machine's byte order, "little" or "big", as the
// contract records it.
func Endian() string {
	var buf [2]byte
	binary.NativeEndian.PutUint16(buf[:], 1)
	if buf[0] == 1 {
		return "little"
	}
	return "big"
}

// EndianTag encodes a byte-order name as the one-byte tag binary
// headers carry: 1 for little, 2 for big.
func EndianTag(e string) byte {
	if e == "big" {
		return 2
	}
	return 1
}

// EndianName inverts EndianTag; ok is false for an unknown tag.
func EndianName(tag byte) (e string, ok bool) {
	switch tag {
	case 1:
		return "little", true
	case 2:
		return "big", true
	}
	return "", false
}

// FixedKind reports whether t is a fixed-width primitive a raw codec can
// carry as a memory dump — ints, uints and floats. Strings, structs,
// slices and interfaces are not; codecs route them to gob.
func FixedKind(t reflect.Type) (reflect.Kind, bool) {
	switch k := t.Kind(); k {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr, reflect.Float32, reflect.Float64:
		return k, true
	}
	return 0, false
}

// Elem returns T's contract facts — reflect kind and width in bytes —
// with ok false when T is not a fixed-width primitive.
func Elem[T any]() (kind reflect.Kind, width int, ok bool) {
	kind, ok = FixedKind(reflect.TypeFor[T]())
	if !ok {
		return 0, 0, false
	}
	var zero T
	return kind, int(unsafe.Sizeof(zero)), true
}
