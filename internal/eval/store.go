// store.go connects the per-Compiled memoization cache to the persistent
// artifact store (internal/store, DESIGN.md §12). Every disk record is
// content-addressed: its key bytes are "mcs<version>|<module hash>|<memo
// key>", where the module hash covers the canonical textual rendering of
// the IR after the front end and the memo key already embeds the machine's
// CacheKey, the partitioner options' CacheKey, and the lock signature. Two
// runs build the same key only when every input that can influence the
// value is identical, so serving the record is always safe; anything else
// — a codec change (version bump), a different module, flipped bits on
// disk — misses and degrades to a recompute.
package eval

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync/atomic"

	"mcpart/internal/gdp"
	"mcpart/internal/ir"
	"mcpart/internal/obs"
	"mcpart/internal/profile"
	"mcpart/internal/rhop"
	"mcpart/internal/store"
)

// codecVersion is the generation of the value encodings below. It is baked
// into every disk key, so bumping it orphans (rather than misreads) old
// records.
const codecVersion = 1

// moduleHashes counts moduleHash calls, so tests can pin one per Compiled.
var moduleHashes atomic.Int64

// moduleHash returns the content hash identifying a module in disk-cache
// keys: SHA-256 over the module's stable textual rendering (the bytes of
// ir.Print, streamed by ir.WriteModule), which covers functions, blocks,
// op IDs and objects; the MayAccess sets the pipeline also reads are a
// function of those.
func moduleHash(m *ir.Module) string {
	moduleHashes.Add(1)
	h := sha256.New()
	ir.WriteModule(h, m) // a hash never fails a write
	return hex.EncodeToString(h.Sum(nil))
}

// keyPrefix builds the disk-key prefix for one module.
func keyPrefix(modHash string) string {
	return fmt.Sprintf("mcs%d|%s|", codecVersion, modHash)
}

// storeTier adapts a *store.Store to memo.Tier, prefixing every memo key
// with the module hash so one shared store serves many Compiled values.
type storeTier struct {
	s      *store.Store
	prefix string
}

func (t *storeTier) Get(key string) ([]byte, bool) { return t.s.Get([]byte(t.prefix + key)) }
func (t *storeTier) Put(key string, val []byte)    { t.s.Put([]byte(t.prefix+key), val) }
func (t *storeTier) MarkCorrupt(key string)        { t.s.MarkCorrupt([]byte(t.prefix + key)) }

// dataTier adapts a *store.Store to gdp.DataTier: GDP's data partitions
// ('D' records) under the module prefix plus "data|" plus the memo key.
type dataTier struct {
	s      *store.Store
	prefix string
	nobj   int // objects in the module, which every entry must cover
}

func (t *dataTier) key(key []byte) []byte { return append([]byte(t.prefix+"data|"), key...) }

func (t *dataTier) Get(key []byte, k int) (*gdp.DataEntry, bool) {
	dk := t.key(key)
	b, ok := t.s.Get(dk)
	if !ok {
		return nil, false
	}
	e, err := decodeData(b, t.nobj, k)
	if err != nil {
		t.s.MarkCorrupt(dk) // the recompute's write heals the entry
		return nil, false
	}
	return e, true
}

func (t *dataTier) Put(key []byte, e *gdp.DataEntry) { t.s.Put(t.key(key), encodeData(e)) }

// attachStore opens (or joins) the shared artifact store under dir and
// layers it beneath c's memoization cache and data-partition memo, under
// prefix (the module's keyPrefix; empty computes it). Open failures
// degrade to memory-only caching — a broken cache directory must never
// break an evaluation — and the error is reported so callers that want to
// surface it (the CLI tools) can. Safe to call repeatedly; the first call
// wins.
func (c *Compiled) attachStore(dir string, maxBytes int64, prefix string, o *obs.Observer) error {
	if c.memo == nil || dir == "" {
		return nil
	}
	var err error
	c.storeOnce.Do(func() {
		var st *store.Store
		st, err = store.OpenShared(dir, store.Options{MaxBytes: maxBytes})
		if err != nil {
			return
		}
		if prefix == "" {
			prefix = keyPrefix(moduleHash(c.Mod))
		}
		c.store = st
		c.memo.SetTier(&storeTier{s: st, prefix: prefix})
		c.dataParts.SetTier(&dataTier{s: st, prefix: prefix, nobj: len(c.Mod.Objects)})
	})
	if c.store != nil && o != nil {
		c.store.SetObserver(o)
	}
	return err
}

// StoreStats snapshots the disk tier's counters (zero value when no store
// is attached). The counters are shared by every Compiled using the same
// cache directory.
func (c *Compiled) StoreStats() store.Stats { return c.store.Stats() }

// Value encodings. Each starts with a one-byte tag; a record whose tag or
// shape does not match degrades to a decode error, which the memo layer
// turns into MarkCorrupt + recompute.
const (
	tagLocks byte = 'L'
	tagPart  byte = 'P'
	tagSched byte = 'S'
	tagProf  byte = 'F'
	tagData  byte = 'D'
)

// decodeErr is the shared shape-mismatch error.
func decodeErr(tag byte) error { return fmt.Errorf("eval: artifact decode: bad %q record", tag) }

// varint cursor over an encoded record body.
type reader struct {
	b   []byte
	bad bool
}

func (r *reader) int() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) uint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) done() bool { return !r.bad && len(r.b) == 0 }

// maxCount bounds decoded element counts so a corrupt length cannot drive
// a huge allocation before the shape check fails.
const maxCount = 1 << 24

func (r *reader) count() int {
	n := r.uint()
	if n > maxCount {
		r.bad = true
		return 0
	}
	return int(n)
}

// lockCodec round-trips rhop.Locks (object ID → home cluster).
type lockCodec struct{}

func (lockCodec) Encode(v any) ([]byte, error) {
	l, ok := v.(rhop.Locks)
	if !ok {
		return nil, fmt.Errorf("eval: artifact encode: %T is not rhop.Locks", v)
	}
	ids := make([]int, 0, len(l))
	for id := range l {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	b := []byte{tagLocks}
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = binary.AppendVarint(b, int64(id))
		b = binary.AppendVarint(b, int64(l[id]))
	}
	return b, nil
}

func (lockCodec) Decode(b []byte) (any, error) {
	if len(b) == 0 || b[0] != tagLocks {
		return nil, decodeErr(tagLocks)
	}
	r := &reader{b: b[1:]}
	n := r.count()
	l := make(rhop.Locks, n)
	for i := 0; i < n; i++ {
		id, cl := r.int(), r.int()
		l[int(id)] = int(cl)
	}
	if !r.done() {
		return nil, decodeErr(tagLocks)
	}
	return l, nil
}

// partCodec round-trips a per-function op assignment ([]int, dense by op
// ID).
type partCodec struct{}

func (partCodec) Encode(v any) ([]byte, error) {
	asg, ok := v.([]int)
	if !ok {
		return nil, fmt.Errorf("eval: artifact encode: %T is not []int", v)
	}
	b := []byte{tagPart}
	b = binary.AppendUvarint(b, uint64(len(asg)))
	for _, cl := range asg {
		b = binary.AppendVarint(b, int64(cl))
	}
	return b, nil
}

func (partCodec) Decode(b []byte) (any, error) {
	if len(b) == 0 || b[0] != tagPart {
		return nil, decodeErr(tagPart)
	}
	r := &reader{b: b[1:]}
	n := r.count()
	asg := make([]int, n)
	for i := range asg {
		asg[i] = int(r.int())
	}
	if !r.done() {
		return nil, decodeErr(tagPart)
	}
	return asg, nil
}

// schedCodec round-trips a (cycles, moves) pair.
type schedCodec struct{}

func (schedCodec) Encode(v any) ([]byte, error) {
	pair, ok := v.([2]int64)
	if !ok {
		return nil, fmt.Errorf("eval: artifact encode: %T is not [2]int64", v)
	}
	b := []byte{tagSched}
	b = binary.AppendVarint(b, pair[0])
	b = binary.AppendVarint(b, pair[1])
	return b, nil
}

func (schedCodec) Decode(b []byte) (any, error) {
	if len(b) == 0 || b[0] != tagSched {
		return nil, decodeErr(tagSched)
	}
	r := &reader{b: b[1:]}
	pair := [2]int64{r.int(), r.int()}
	if !r.done() {
		return nil, decodeErr(tagSched)
	}
	return pair, nil
}

// encodeData serializes a GDP data partition: the part per object, the
// groups with their bytes, the cut weight and the k×k part-pair matrix
// (k is in the key).
func encodeData(e *gdp.DataEntry) []byte {
	b := []byte{tagData}
	b = binary.AppendUvarint(b, uint64(len(e.Part)))
	for _, p := range e.Part {
		b = binary.AppendUvarint(b, uint64(p))
	}
	b = binary.AppendUvarint(b, uint64(len(e.Groups)))
	for gi, g := range e.Groups {
		b = binary.AppendUvarint(b, uint64(len(g)))
		for _, id := range g {
			b = binary.AppendUvarint(b, uint64(id))
		}
		b = binary.AppendVarint(b, e.GroupBytes[gi])
	}
	b = binary.AppendVarint(b, e.Cut)
	for _, w := range e.PairW {
		b = binary.AppendVarint(b, w)
	}
	return b
}

// decodeData reconstructs a data partition for a module of nobj objects
// on k clusters. Anything but that exact shape is a decode error: a part
// outside [0,k), groups that do not cover every object exactly once in
// ascending order, or a part-pair matrix that is not symmetric with a
// zero diagonal summing to the cut weight.
func decodeData(b []byte, nobj, k int) (*gdp.DataEntry, error) {
	if len(b) == 0 || b[0] != tagData {
		return nil, decodeErr(tagData)
	}
	r := &reader{b: b[1:]}
	if r.count() != nobj {
		return nil, decodeErr(tagData)
	}
	e := &gdp.DataEntry{Part: make([]int, nobj)}
	for i := range e.Part {
		p := r.uint()
		if p >= uint64(k) {
			return nil, decodeErr(tagData)
		}
		e.Part[i] = int(p)
	}
	ng := r.count()
	if ng > nobj {
		return nil, decodeErr(tagData)
	}
	e.Groups, e.GroupBytes = make([][]int, ng), make([]int64, ng)
	seen := make([]bool, nobj)
	covered := 0
	for gi := range e.Groups {
		n := r.count()
		if n == 0 || covered+n > nobj {
			return nil, decodeErr(tagData)
		}
		g := make([]int, n)
		for i := range g {
			id := r.uint()
			if id >= uint64(nobj) || seen[id] || (i > 0 && int(id) <= g[i-1]) {
				return nil, decodeErr(tagData)
			}
			g[i], seen[id] = int(id), true
		}
		covered += n
		e.Groups[gi], e.GroupBytes[gi] = g, r.int()
	}
	e.Cut = r.int()
	e.PairW = make([]int64, k*k)
	for i := range e.PairW {
		e.PairW[i] = r.int()
	}
	var sum int64
	for p := 0; p < k; p++ {
		for q := p; q < k; q++ {
			if w := e.PairW[p*k+q]; w != e.PairW[q*k+p] || (p == q && w != 0) {
				return nil, decodeErr(tagData)
			} else if p < q {
				sum += w
			}
		}
	}
	if covered != nobj || sum != e.Cut || !r.done() {
		return nil, decodeErr(tagData)
	}
	return e, nil
}

// Profile serialization is module-relative: pointers into the IR (blocks,
// ops) become (function index, block index) and (function index, op ID)
// pairs, valid for any process that compiled the same source the same way
// — which the module hash in the disk key guarantees.

// encodeProfile serializes a profiling run: the checksum main returned
// plus the full profile.Profile.
func encodeProfile(m *ir.Module, p *profile.Profile, ret int64) []byte {
	b := []byte{tagProf}
	b = binary.AppendVarint(b, ret)
	b = binary.AppendVarint(b, p.Steps)
	b = binary.AppendUvarint(b, uint64(len(m.Funcs)))
	for _, f := range m.Funcs {
		b = binary.AppendUvarint(b, uint64(len(f.Blocks)))
		for _, blk := range f.Blocks {
			b = binary.AppendVarint(b, p.BlockFreq[blk])
		}
		// Memory ops with recorded accesses, by ascending op ID.
		var ops []*ir.Op
		for _, blk := range f.Blocks {
			for _, op := range blk.Ops {
				if len(p.OpObj[op]) > 0 {
					ops = append(ops, op)
				}
			}
		}
		sort.Slice(ops, func(i, j int) bool { return ops[i].ID < ops[j].ID })
		b = binary.AppendUvarint(b, uint64(len(ops)))
		for _, op := range ops {
			counts := p.OpObj[op]
			objs := make([]int, 0, len(counts))
			for id := range counts {
				objs = append(objs, id)
			}
			sort.Ints(objs)
			b = binary.AppendVarint(b, int64(op.ID))
			b = binary.AppendUvarint(b, uint64(len(objs)))
			for _, id := range objs {
				b = binary.AppendVarint(b, int64(id))
				b = binary.AppendVarint(b, counts[id])
			}
		}
	}
	b = appendIntMap(b, p.ObjBytes)
	b = appendIntMap(b, p.ObjAccess)
	return b
}

func appendIntMap(b []byte, m map[int]int64) []byte {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = binary.AppendVarint(b, int64(id))
		b = binary.AppendVarint(b, m[id])
	}
	return b
}

func (r *reader) intMap() map[int]int64 {
	n := r.count()
	m := make(map[int]int64, n)
	for i := 0; i < n; i++ {
		id, v := r.int(), r.int()
		m[int(id)] = v
	}
	return m
}

// decodeProfile reconstructs a Profile against m. Any structural mismatch
// (function/block/op counts, unknown op IDs) is a decode error.
func decodeProfile(m *ir.Module, b []byte) (*profile.Profile, int64, error) {
	if len(b) == 0 || b[0] != tagProf {
		return nil, 0, decodeErr(tagProf)
	}
	r := &reader{b: b[1:]}
	ret := r.int()
	p := profile.NewProfile()
	p.Steps = r.int()
	if nf := r.count(); nf != len(m.Funcs) {
		return nil, 0, decodeErr(tagProf)
	}
	for _, f := range m.Funcs {
		if nb := r.count(); nb != len(f.Blocks) {
			return nil, 0, decodeErr(tagProf)
		}
		for _, blk := range f.Blocks {
			if freq := r.int(); freq != 0 {
				p.BlockFreq[blk] = freq
			}
		}
		byID := f.OpsByID()
		nops := r.count()
		for i := 0; i < nops; i++ {
			opID := int(r.int())
			nobj := r.count()
			if r.bad || opID < 0 || opID >= len(byID) || byID[opID] == nil {
				return nil, 0, decodeErr(tagProf)
			}
			counts := make(map[int]int64, nobj)
			for j := 0; j < nobj; j++ {
				id, cnt := r.int(), r.int()
				counts[int(id)] = cnt
			}
			p.OpObj[byID[opID]] = counts
		}
	}
	p.ObjBytes = r.intMap()
	p.ObjAccess = r.intMap()
	if !r.done() {
		return nil, 0, decodeErr(tagProf)
	}
	return p, ret, nil
}

// cachedProfile looks up a stored profiling run for mod. It only serves a
// record whose recorded step count fits the caller's current budget:
// a run that would exceed maxSteps cold must fail the same way warm, so a
// larger-budget record never masks a BudgetError (determinism across
// cache states).
func cachedProfile(st *store.Store, prefix string, mod *ir.Module, maxSteps int64) (*profile.Profile, int64, bool) {
	b, ok := st.Get([]byte(prefix + "prof"))
	if !ok {
		return nil, 0, false
	}
	p, ret, err := decodeProfile(mod, b)
	if err != nil || p.Steps > maxSteps {
		if err != nil {
			st.MarkCorrupt([]byte(prefix + "prof"))
		}
		return nil, 0, false
	}
	return p, ret, true
}

// putProfile stores a completed profiling run.
func putProfile(st *store.Store, prefix string, mod *ir.Module, p *profile.Profile, ret int64) {
	st.Put([]byte(prefix+"prof"), encodeProfile(mod, p, ret))
}
