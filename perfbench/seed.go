package main

import (
	"encoding/binary"
	"math/rand/v2"
)

// Every input a workload uses comes from the run's seed and a stream
// number, so one seed gives the same payloads and damage on every run.
const (
	streamPayload = iota + 1
	streamDamage
)

// fill writes seeded pseudo-random bytes into b.
func fill(b []byte, seed int64, stream, index uint64) {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[0:], uint64(seed))
	binary.LittleEndian.PutUint64(key[8:], stream)
	binary.LittleEndian.PutUint64(key[16:], index)
	rand.NewChaCha8(key).Read(b)
}

// pick returns k distinct values from [0, n), seeded.
func pick(n, k int, seed int64, stream, index uint64) []int {
	r := rand.New(rand.NewPCG(uint64(seed)^stream<<32, index))
	return r.Perm(n)[:k]
}

// damageShare is the seeded fraction of blocks a workload destroys
// before reading back.
const damageShare = 0.15

// damaged is how many of n blocks a round destroys.
func damaged(n int) int { return int(damageShare * float64(n)) }
