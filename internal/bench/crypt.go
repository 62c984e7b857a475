package bench

import (
	"fmt"

	"spd3/internal/mem"
	"spd3/internal/task"
)

// runCrypt is the JGF IDEA kernel: encrypt plain1 into crypt1, decrypt
// into plain2, and verify plain2 == plain1. The 52-entry key schedules
// are read-shared by every block task — with large arrays this is the
// benchmark where the paper reports the largest gap over FastTrack
// (Table 2: 133× vs 1.84×), because every element of three big arrays is
// monitored.
func runCrypt(rt *task.Runtime, in Input) (float64, error) {
	n := in.scaled(16384, 64)
	n &^= 7 // whole 8-byte blocks

	plain1 := mem.NewArray[byte](rt, "crypt.plain1", n)
	crypt1 := mem.NewArray[byte](rt, "crypt.crypt1", n)
	plain2 := mem.NewArray[byte](rt, "crypt.plain2", n)
	z := mem.NewArray[uint16](rt, "crypt.Z", 52)
	dk := mem.NewArray[uint16](rt, "crypt.DK", 52)

	r := newRNG(23)
	for i, raw := 0, plain1.Unchecked(); i < len(raw); i++ {
		raw[i] = byte(r.intn(256))
	}
	var userKey [8]uint16
	for i := range userKey {
		userKey[i] = uint16(r.intn(1 << 16))
	}
	enc := ideaEncryptionKey(userKey)
	copy(z.Unchecked(), enc[:])
	dec := ideaDecryptionKey(enc)
	copy(dk.Unchecked(), dec[:])

	blocks := n / 8
	err := rt.Run(func(c *task.Ctx) {
		c.ParallelFor(0, blocks, in.grain(c, blocks), func(c *task.Ctx, b int) {
			ideaBlock(c, plain1, crypt1, z, b)
		})
		c.ParallelFor(0, blocks, in.grain(c, blocks), func(c *task.Ctx, b int) {
			ideaBlock(c, crypt1, plain2, dk, b)
		})
	})
	if err != nil {
		return 0, err
	}
	p1, p2 := plain1.Unchecked(), plain2.Unchecked()
	sum := 0.0
	for i := range p1 {
		if p1[i] != p2[i] {
			return 0, fmt.Errorf("crypt: decrypt mismatch at byte %d: %d != %d", i, p2[i], p1[i])
		}
		sum += float64(crypt1.Unchecked()[i])
	}
	return sum, nil
}

// ideaBlock runs the 8.5-round IDEA cipher on 8-byte block b of src into
// dst with key schedule key, through the instrumented arrays.
func ideaBlock(c *task.Ctx, src, dst *mem.Array[byte], key *mem.Array[uint16], b int) {
	o := b * 8
	load := func(k int) uint16 {
		return uint16(src.Get(c, o+2*k))<<8 | uint16(src.Get(c, o+2*k+1))
	}
	x1, x2, x3, x4 := load(0), load(1), load(2), load(3)
	ki := 0
	next := func() uint16 { v := key.Get(c, ki); ki++; return v }

	for round := 0; round < 8; round++ {
		x1 = ideaMul(x1, next())
		x2 += next()
		x3 += next()
		x4 = ideaMul(x4, next())
		s3 := x3
		x3 ^= x1
		x3 = ideaMul(x3, next())
		s2 := x2
		x2 ^= x4
		x2 += x3
		x2 = ideaMul(x2, next())
		x3 += x2
		x1 ^= x2
		x4 ^= x3
		x2 ^= s3
		x3 ^= s2
	}
	r1 := ideaMul(x1, next())
	r2 := x3 + next()
	r3 := x2 + next()
	r4 := ideaMul(x4, next())

	store := func(k int, v uint16) {
		dst.Set(c, o+2*k, byte(v>>8))
		dst.Set(c, o+2*k+1, byte(v))
	}
	store(0, r1)
	store(1, r2)
	store(2, r3)
	store(3, r4)
}

// ideaMul is multiplication in GF(2^16+1) with 0 denoting 2^16.
func ideaMul(a, b uint16) uint16 {
	switch {
	case a == 0:
		return uint16(0x10001 - uint32(b))
	case b == 0:
		return uint16(0x10001 - uint32(a))
	default:
		p := uint32(a) * uint32(b)
		hi, lo := p>>16, p&0xffff
		if lo >= hi {
			return uint16(lo - hi)
		}
		return uint16(lo - hi + 0x10001)
	}
}

// ideaMulInv returns the multiplicative inverse of x in GF(2^16+1) by
// Fermat's little theorem: x^(2^16-1) mod (2^16+1).
func ideaMulInv(x uint16) uint16 {
	if x <= 1 {
		return x // 0 and 1 are self-inverse under the 0 == 2^16 convention
	}
	result := uint16(1)
	base := x
	for e := 0xffff; e > 0; e >>= 1 {
		if e&1 == 1 {
			result = ideaMul(result, base)
		}
		base = ideaMul(base, base)
	}
	return result
}

// ideaEncryptionKey expands a 128-bit user key to the 52 subkeys by the
// standard 25-bit rotation schedule.
func ideaEncryptionKey(user [8]uint16) (z [52]uint16) {
	copy(z[:8], user[:])
	for i := 8; i < 52; i++ {
		// z[i] is 16 bits of the user key cyclically rotated left by
		// 25 bits per 8-key group (the classic idea.c recurrence).
		j := i & 7
		switch {
		case j < 6:
			z[i] = z[i-7]<<9 | z[i-6]>>7
		case j == 6:
			z[i] = z[i-7]<<9 | z[i-14]>>7
		default:
			z[i] = z[i-15]<<9 | z[i-14]>>7
		}
	}
	return z
}

// ideaDecryptionKey inverts an encryption schedule (Plumb's de_key_idea):
// subkeys are consumed in reverse round order with multiplicative keys
// inverted, additive keys negated, and the middle additive pair swapped
// for the interior rounds.
func ideaDecryptionKey(z [52]uint16) (dk [52]uint16) {
	p := 52
	push := func(v uint16) { p--; dk[p] = v }
	zi := 0
	pull := func() uint16 { v := z[zi]; zi++; return v }

	t1 := ideaMulInv(pull())
	t2 := -pull()
	t3 := -pull()
	t4 := ideaMulInv(pull())
	push(t4)
	push(t3)
	push(t2)
	push(t1)
	for r := 1; r < 8; r++ {
		t1 = pull() // MA-box keys keep their order
		t2 = pull()
		push(t2)
		push(t1)
		t1 = ideaMulInv(pull())
		t2 = -pull()
		t3 = -pull()
		t4 = ideaMulInv(pull())
		push(t4)
		push(t2) // swapped
		push(t3) // swapped
		push(t1)
	}
	t1 = pull()
	t2 = pull()
	push(t2)
	push(t1)
	t1 = ideaMulInv(pull())
	t2 = -pull()
	t3 = -pull()
	t4 = ideaMulInv(pull())
	push(t4)
	push(t3)
	push(t2)
	push(t1)
	return dk
}
