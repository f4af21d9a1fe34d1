#ifndef EDGELET_CRYPTO_CHACHA20_H_
#define EDGELET_CRYPTO_CHACHA20_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace edgelet::crypto {

using Key256 = std::array<uint8_t, 32>;
using Nonce96 = std::array<uint8_t, 12>;

// ChaCha20 stream cipher (RFC 8439). Encryption and decryption are the same
// XOR operation. `counter` is the initial block counter (1 for AEAD payload,
// 0 for the Poly1305 one-time key block).
Bytes ChaCha20Xor(const Key256& key, const Nonce96& nonce, uint32_t counter,
                  const Bytes& input);

// In-place variant — the hot path behind every sealed message. Keystream is
// generated four blocks at a time into a stack scratch buffer (independent
// blocks in structure-of-arrays layout, which the compiler auto-vectorizes)
// and XORed over `data` word-at-a-time. No heap allocation. ChaCha20Xor is
// a thin copy-then-XorInPlace wrapper, so both produce identical bytes.
void ChaCha20XorInPlace(const Key256& key, const Nonce96& nonce,
                        uint32_t counter, uint8_t* data, size_t len);

// Raw 64-byte keystream block; exposed for tests against the RFC 8439
// vectors.
std::array<uint8_t, 64> ChaCha20Block(const Key256& key, const Nonce96& nonce,
                                      uint32_t counter);

// Four consecutive keystream blocks (counters counter..counter+3) from one
// 4-wide vector batch.
constexpr size_t kChaCha20Batch4Bytes = 4 * 64;
void ChaCha20Blocks4(const Key256& key, const Nonce96& nonce,
                     uint32_t counter, uint8_t out[kChaCha20Batch4Bytes]);

// The AEAD's one-batch keystream: `batch` holds blocks 0-3 from
// ChaCha20Blocks4 at counter 0 (block 0 supplies the Poly1305 one-time
// key). XORs data[0..len) with the keystream from counter 1 — blocks 1-3
// from `batch`, the rest generated from counter 4 — so the result equals
// ChaCha20XorInPlace(key, nonce, 1, data, len).
void ChaCha20XorAfterBlock0(const Key256& key, const Nonce96& nonce,
                            const uint8_t batch[kChaCha20Batch4Bytes],
                            uint8_t* data, size_t len);

}  // namespace edgelet::crypto

#endif  // EDGELET_CRYPTO_CHACHA20_H_
