package state

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
)

// Binary snapshot format for state vectors, so post-ansatz states can be
// cached across processes (the file-system analogue of the in-memory
// Cache):
//
//	magic "NWQS" | uint32 version | uint32 qubits | 2^n × (float64 re, im)
//
// all little-endian.

const (
	snapshotMagic   = "NWQS"
	snapshotVersion = 1
)

// Save writes the state snapshot.
func (s *State) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(snapshotVersion)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(s.n)); err != nil {
		return err
	}
	buf := make([]byte, 16)
	for _, a := range s.amps {
		binary.LittleEndian.PutUint64(buf[0:8], math.Float64bits(real(a)))
		binary.LittleEndian.PutUint64(buf[8:16], math.Float64bits(imag(a)))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a snapshot written by Save, returning a fresh state.
func Load(r io.Reader, opts Options) (*State, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("state: reading magic: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("state: %w: bad magic %q", core.ErrInvalidArgument, magic)
	}
	var version, qubits uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("state: %w: unsupported snapshot version %d", core.ErrInvalidArgument, version)
	}
	if err := binary.Read(br, binary.LittleEndian, &qubits); err != nil {
		return nil, err
	}
	if qubits > 30 {
		return nil, fmt.Errorf("state: %w: implausible qubit count %d", core.ErrInvalidArgument, qubits)
	}
	s := New(int(qubits), opts)
	buf := make([]byte, 16)
	for i := range s.amps {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("state: truncated snapshot at amplitude %d: %w", i, err)
		}
		re := math.Float64frombits(binary.LittleEndian.Uint64(buf[0:8]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(buf[8:16]))
		s.amps[i] = complex(re, im)
	}
	s.dropSupport()
	if math.Abs(s.Norm()-1) > 1e-6 {
		return nil, fmt.Errorf("state: %w: snapshot norm %v", core.ErrInvalidArgument, s.Norm())
	}
	return s, nil
}
