package core

// Deque is a growable ring-buffer FIFO. The device queues (calendar
// queues, NIC TX queues, fabric output queues) previously used the
// `s = append(s, v)` / `s = s[1:]` slice idiom, which never reuses the
// space vacated at the front: every ~cap pushes reallocate and copy the
// whole backing array, making queue traffic the dominant allocation source
// once event scheduling went allocation-free. The ring buffer reuses its
// slots, so steady-state push/pop allocates nothing.
//
// The zero value is an empty deque. Capacity grows in powers of two;
// PopFront zeroes the vacated slot so popped references are collectable.
type Deque[T any] struct {
	buf  []T // len(buf) is always 0 or a power of two
	head int
	n    int
}

// Len returns the number of queued elements.
func (d *Deque[T]) Len() int { return d.n }

// PushBack appends v at the tail.
func (d *Deque[T]) PushBack(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)&(len(d.buf)-1)] = v
	d.n++
}

// Front returns the head element without removing it. The deque must be
// non-empty.
func (d *Deque[T]) Front() T { return d.buf[d.head] }

// SetFront replaces the head element. The deque must be non-empty.
func (d *Deque[T]) SetFront(v T) { d.buf[d.head] = v }

// PopFront removes and returns the head element. The deque must be
// non-empty.
func (d *Deque[T]) PopFront() T {
	v := d.buf[d.head]
	var zero T
	d.buf[d.head] = zero
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return v
}

func (d *Deque[T]) grow() {
	c := 2 * len(d.buf)
	if c == 0 {
		c = 8
	}
	nb := make([]T, c)
	mask := len(d.buf) - 1
	for i := 0; i < d.n; i++ {
		nb[i] = d.buf[(d.head+i)&mask]
	}
	d.buf, d.head = nb, 0
}
