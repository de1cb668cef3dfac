package obs

import (
	"reflect"
	"testing"
)

func TestRingEvictsOldestInOrder(t *testing.T) {
	r := NewRing[int](3)
	for i := 1; i <= 3; i++ {
		if _, evicted := r.Push(i); evicted {
			t.Fatalf("push %d evicted before the ring was full", i)
		}
	}
	for i := 4; i <= 8; i++ { // wraps the buffer more than once
		if old, evicted := r.Push(i); !evicted || old != i-3 {
			t.Fatalf("push %d evicted (%d, %v), want (%d, true)", i, old, evicted, i-3)
		}
	}
	var seen []int
	r.Each(func(v int) { seen = append(seen, v) })
	if want := []int{6, 7, 8}; !reflect.DeepEqual(seen, want) || r.Len() != 3 {
		t.Fatalf("Each = %v (len %d), want %v", seen, r.Len(), want)
	}
	one := NewRing[int](0) // non-positive capacity clamps to 1
	one.Push(1)
	if old, evicted := one.Push(2); !evicted || old != 1 || one.Len() != 1 {
		t.Fatalf("capacity-0 ring: second push evicted (%d, %v), len %d", old, evicted, one.Len())
	}
}
