package serve

import (
	"reflect"
	"testing"
)

// TestStoreLayout: the epoch pointer every reader loads shares its cache
// line only with fields set before the Store is visible or at Close, never
// with one an enqueue or a batch writes (the queue and its mutex, the
// retired epochs, the counters), and the Store stays in the 320-byte size
// class, whose objects all start on a line, so an offset in the struct is
// an offset in a line.
func TestStoreLayout(t *testing.T) {
	const line = 64
	quiet := map[string]bool{"cur": true, "g": true, "opt": true, "wake": true, "done": true, "dur": true, "closed": true}
	st := reflect.TypeFor[Store]()
	cur, _ := st.FieldByName("cur")
	lo := cur.Offset / line * line
	for i := range st.NumField() {
		f := st.Field(i)
		if f.Offset < lo+line && f.Offset+f.Type.Size() > lo && !quiet[f.Name] {
			t.Errorf("Store.%s at [%d,%d) shares cur's cache line [%d,%d)", f.Name, f.Offset, f.Offset+f.Type.Size(), lo, lo+line)
		}
	}
	if size := st.Size(); size <= 288 || size > 320 {
		t.Errorf("a Store is %d bytes, outside the 320-byte size class (289–320)", size)
	}
}
