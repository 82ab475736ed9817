package tokens

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Save serializes the dictionary (words in id order with their document
// frequencies) so a text pipeline can be restored with identical token
// ids.
func (d *Dictionary) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(tmp[:], v)
		_, err := bw.Write(tmp[:n])
		return err
	}
	if err := put(uint64(d.Size())); err != nil {
		return err
	}
	for id := range Token(d.Size()) {
		word := d.bytes(id)
		if err := put(uint64(len(word))); err != nil {
			return err
		}
		if _, err := bw.Write(word); err != nil {
			return err
		}
		if err := put(d.freq[id]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadDictionary reads a dictionary written by Save. The reader must be
// positioned exactly at the start of the dictionary; trailing data is left
// unread only when r is buffered by the caller — use a *bufio.Reader when
// concatenating sections.
func LoadDictionary(r io.ByteReader) (*Dictionary, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("tokens: dictionary count: %w", err)
	}
	if n > 1<<28 {
		return nil, fmt.Errorf("tokens: absurd dictionary size %d", n)
	}
	d := NewDictionary()
	var buf []byte
	for i := uint64(0); i < n; i++ {
		wl, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("tokens: word %d length: %w", i, err)
		}
		if wl > 1<<20 {
			return nil, fmt.Errorf("tokens: absurd word length %d", wl)
		}
		if uint64(len(d.arena))+wl > math.MaxUint32 {
			return nil, fmt.Errorf("tokens: word %d overflows the 4 GiB dictionary arena", i)
		}
		buf = buf[:0]
		for range wl {
			b, err := r.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("tokens: word %d bytes: %w", i, err)
			}
			buf = append(buf, b)
		}
		id := d.InternBytes(buf)
		f, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("tokens: word %d freq: %w", i, err)
		}
		d.freq[id] = f
	}
	return d, nil
}

// Save serializes the ordering: the frozen rank table and the stable
// post-frozen assignments in ascending token order, so restored pipelines
// map every known token to the exact rank it had — which stored records
// depend on — and two saves of one state are byte-identical.
func (o *Ordering) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(tmp[:], v)
		_, err := bw.Write(tmp[:n])
		return err
	}
	if err := put(uint64(o.frozen)); err != nil {
		return err
	}
	for _, r := range o.rank[:o.frozen] {
		if err := put(uint64(r)); err != nil {
			return err
		}
	}
	assigned := 0
	for _, r := range o.extra {
		if r != unassigned {
			assigned++
		}
	}
	if err := put(uint64(assigned)); err != nil {
		return err
	}
	for k, r := range o.extra {
		if r == unassigned {
			continue
		}
		if err := put(uint64(o.frozen + k)); err != nil {
			return err
		}
		if err := put(uint64(r)); err != nil {
			return err
		}
	}
	if err := put(uint64(o.next)); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadOrdering reads an ordering written by Save, binding it to dict, which
// must already hold every token the ordering ranks. Post-frozen
// assignments may come in any order.
func LoadOrdering(r io.ByteReader, dict *Dictionary) (*Ordering, error) {
	frozen, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("tokens: ordering frozen count: %w", err)
	}
	if frozen > 1<<28 {
		return nil, fmt.Errorf("tokens: absurd frozen count %d", frozen)
	}
	o := &Ordering{dict: dict, frozen: int(frozen)}
	// Append as ranks decode: the count is outside input, and a snapshot
	// cut short must not have sized an allocation first.
	for i := uint64(0); i < frozen; i++ {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("tokens: rank %d: %w", i, err)
		}
		o.rank = append(o.rank, Rank(v))
	}
	ne, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("tokens: extra count: %w", err)
	}
	if ne > 1<<28 {
		return nil, fmt.Errorf("tokens: absurd extra count %d", ne)
	}
	for i := uint64(0); i < ne; i++ {
		tok, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("tokens: extra token: %w", err)
		}
		rk, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("tokens: extra rank: %w", err)
		}
		if tok < frozen || tok >= uint64(dict.Size()) {
			return nil, fmt.Errorf("tokens: extra token %d outside post-frozen range [%d, %d)", tok, frozen, dict.Size())
		}
		if rk >= uint64(unassigned) {
			return nil, fmt.Errorf("tokens: absurd extra rank %d", rk)
		}
		*o.slot(Token(tok)) = Rank(rk)
	}
	next, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("tokens: ordering next: %w", err)
	}
	o.next = Rank(next)
	return o, nil
}
