// Package store is the persistent graph store: a versioned on-disk
// format for CSR graphs, an edge-list ingest path for real datasets,
// and the durable atomic-write helper shared by every file-writing
// command in the repository.
//
// # File format
//
// A store file reuses the snapshot container (magic SBWSNAP1, format
// version, CRC-checked section table — see internal/snapshot) with
// three sections:
//
//   - SecStoreMeta: the fingerprint "store/csr/v1", then n, m, Δ as
//     uvarints, then zero padding that 4-aligns the next payload.
//   - SecStoreOff: the CSR offset table as raw little-endian int32,
//     4·(n+1) bytes.
//   - SecStoreNbr: the CSR arc arena as raw little-endian int32,
//     4·2m bytes.
//
// Because the CSR arenas are already flat arrays, encoding is a
// straight dump and loading is zero-copy on little-endian hosts: the
// int32 slices alias the (mmap'd or read) file buffer, so loading a
// million-node graph costs file read + CRC + linear validation, not a
// rebuild. The meta padding plus the section order guarantee the raw
// sections start 4-aligned whenever the buffer base is 4-aligned; a
// misaligned or big-endian host transparently falls back to a copying
// decode.
//
// # Trust model
//
// Load validates by default: the CRC catches corruption, and the graph
// is reconstructed through graph.FromCSR, which checks every structural
// invariant (offset shape, row sortedness, target range, no self-loops,
// arc symmetry) in linear time — a hostile store file yields an error,
// never a panic or a structurally broken graph. LoadTrusted skips the
// per-arc checks (graph.FromCSRUnchecked) for files the caller itself
// produced, e.g. a benchmark re-reading a store it just wrote.
//
//sbw:stickydecoder store decode path for hostile store files (FuzzStoreDecode); Load must reject, never panic
package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"unsafe"

	"smallbandwidth/internal/graph"
	"smallbandwidth/internal/snapshot"
)

// Fingerprint identifies a graph-store file inside the shared snapshot
// container; a checkpoint file carries a different meta section, so the
// two kinds cannot be mistaken for each other.
const Fingerprint = "store/csr/v1"

// Info is the metadata of a store file, readable without loading the
// graph.
type Info struct {
	N      int // nodes
	M      int // undirected edges
	MaxDeg int // Δ, fixed at ingest
	Bytes  int // encoded container size
	// ZeroCopy reports whether the arrays were adopted in place
	// (little-endian host, aligned buffer) rather than copied.
	ZeroCopy bool
}

// nativeLE reports whether the host is little-endian: the raw sections
// can then be aliased instead of decoded.
var nativeLE = binary.NativeEndian.Uint16([]byte{0x34, 0x12}) == 0x1234

// EncodeGraph serializes g into a store container. The raw sections are
// straight dumps of the CSR arenas, so encode cost is two memcpys plus
// the CRC pass.
func EncodeGraph(g *graph.Graph) []byte {
	off, nbr := g.CSR()
	meta := &snapshot.Enc{}
	meta.Blob([]byte(Fingerprint))
	meta.Uvarint(uint64(g.N()))
	meta.Uvarint(uint64(g.M()))
	meta.Uvarint(uint64(g.MaxDegree()))
	// Pad the meta payload so the off section lands 4-aligned: the
	// container header is 16 + 12·sections bytes (4-aligned for any
	// section count), so only the meta length can misalign it. The off
	// payload is 4·(n+1) bytes, which keeps nbr aligned in turn.
	header := 16 + 12*3
	pad := make([]byte, (4-(header+len(meta.Bytes()))%4)%4)
	metaBytes := append(meta.Bytes(), pad...)

	c := &snapshot.Container{Version: snapshot.Version, Sections: []snapshot.Section{
		{ID: snapshot.SecStoreMeta, Data: metaBytes},
		{ID: snapshot.SecStoreOff, Data: int32Bytes(off)},
		{ID: snapshot.SecStoreNbr, Data: int32Bytes(nbr)},
	}}
	return snapshot.Encode(c)
}

// Write encodes g and writes it durably to path via WriteFileAtomic.
func Write(path string, g *graph.Graph) error {
	return WriteFileAtomic(path, EncodeGraph(g))
}

// int32Bytes reinterprets an int32 slice as its underlying bytes on
// little-endian hosts, or copies through an explicit LE encoding
// elsewhere — either way the section holds the canonical LE byte image.
func int32Bytes(a []int32) []byte {
	if len(a) == 0 {
		return nil
	}
	if nativeLE {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(a))), 4*len(a))
	}
	b := make([]byte, 4*len(a))
	for i, v := range a {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return b
}

// int32Section reinterprets a section payload as an int32 slice. On a
// little-endian host with a 4-aligned payload the returned slice
// aliases b (zero-copy); otherwise it is decoded into fresh memory.
func int32Section(b []byte) (a []int32, zeroCopy bool) {
	if len(b) == 0 {
		return nil, true
	}
	if nativeLE && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4), true
	}
	a = make([]int32, len(b)/4)
	for i := range a {
		a[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return a, false
}

// decode parses a store container from data, returning the raw CSR
// arrays and metadata. The arrays alias data when possible — the caller
// must keep data alive (and unmodified) as long as the graph lives.
func decode(data []byte) (off, nbr []int32, info *Info, err error) {
	c, err := snapshot.Decode(data)
	if err != nil {
		return nil, nil, nil, err
	}
	metaSec := c.Find(snapshot.SecStoreMeta)
	if metaSec == nil {
		return nil, nil, nil, fmt.Errorf("store: no store meta section (is this a checkpoint file?)")
	}
	d := snapshot.NewDec(metaSec)
	fp := d.Blob()
	n := d.Uvarint()
	m := d.Uvarint()
	maxDeg := d.Uvarint()
	if d.Err() != nil {
		return nil, nil, nil, d.Err()
	}
	if string(fp) != Fingerprint {
		return nil, nil, nil, fmt.Errorf("store: fingerprint %q is not %q", fp, Fingerprint)
	}
	for d.Remaining() > 0 {
		if d.Bool() || d.Err() != nil {
			return nil, nil, nil, fmt.Errorf("store: nonzero meta padding")
		}
	}
	if n > math.MaxInt32 || m > (math.MaxInt32-1)/2 || maxDeg > n {
		return nil, nil, nil, fmt.Errorf("store: implausible shape n=%d m=%d Δ=%d", n, m, maxDeg)
	}

	offSec := c.Find(snapshot.SecStoreOff)
	nbrSec := c.Find(snapshot.SecStoreNbr)
	if offSec == nil || nbrSec == nil {
		return nil, nil, nil, fmt.Errorf("store: raw CSR sections missing")
	}
	if uint64(len(offSec)) != 4*(n+1) {
		return nil, nil, nil, fmt.Errorf("store: offset section is %d bytes for %d nodes", len(offSec), n)
	}
	if uint64(len(nbrSec)) != 4*2*m {
		return nil, nil, nil, fmt.Errorf("store: arc section is %d bytes for %d edges", len(nbrSec), m)
	}
	off, offZC := int32Section(offSec)
	nbr, nbrZC := int32Section(nbrSec)
	return off, nbr, &Info{
		N: int(n), M: int(m), MaxDeg: int(maxDeg),
		Bytes: len(data), ZeroCopy: offZC && nbrZC,
	}, nil
}

// DecodeGraph parses a store container and reconstructs its graph with
// full validation (graph.FromCSR: every structural invariant, linear
// time). Hostile or corrupt input returns an error, never a panic. The
// graph may alias data, which must stay alive and unmodified.
func DecodeGraph(data []byte) (*graph.Graph, *Info, error) {
	return decodeGraph(data, false)
}

func decodeGraph(data []byte, trusted bool) (*graph.Graph, *Info, error) {
	off, nbr, info, err := decode(data)
	if err != nil {
		return nil, nil, err
	}
	var g *graph.Graph
	if trusted {
		g, err = graph.FromCSRUnchecked(off, nbr)
	} else {
		g, err = graph.FromCSR(off, nbr)
	}
	if err != nil {
		return nil, nil, err
	}
	if g.N() != info.N || g.M() != info.M || g.MaxDegree() != info.MaxDeg {
		return nil, nil, fmt.Errorf("store: meta shape n=%d m=%d Δ=%d disagrees with sections n=%d m=%d Δ=%d",
			info.N, info.M, info.MaxDeg, g.N(), g.M(), g.MaxDegree())
	}
	return g, info, nil
}

// Load reads (mmap when available, falling back to a plain read) and
// fully validates the store file at path. The returned graph may alias
// a file mapping that stays resident for the life of the process — the
// intended consumer is a daemon that keeps its graphs hot.
func Load(path string) (*graph.Graph, *Info, error) {
	data, err := readOrMmap(path)
	if err != nil {
		return nil, nil, err
	}
	return DecodeGraph(data)
}

// LoadTrusted is Load minus the per-arc validation: only CRC, shape,
// and offset-table checks run, so the cost is file read + checksum.
// Reserved for files this process (or its operator) produced through
// Write; see the package trust model.
func LoadTrusted(path string) (*graph.Graph, *Info, error) {
	data, err := readOrMmap(path)
	if err != nil {
		return nil, nil, err
	}
	return decodeGraph(data, true)
}

// ReadInfo parses only the container and meta section of path — the
// cheap path for `graphstore info`.
func ReadInfo(path string) (*Info, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	_, _, info, err := decode(data)
	return info, err
}

// readOrMmap maps the file read-only when the platform supports it and
// falls back to ReadFile. The mapping is intentionally never unmapped:
// load-bearing graphs alias it for the remaining process lifetime.
func readOrMmap(path string) ([]byte, error) {
	if data, err := mmapFile(path); err == nil {
		return data, nil
	}
	return os.ReadFile(path)
}
