#include "crypto/aead.h"

#include <cstring>

#include "crypto/sha256.h"

namespace edgelet::crypto {

namespace {

// Block 0 (whose first 32 bytes are the Poly1305 one-time key) and
// payload blocks 1-3 come from one 4-wide batch at counter 0 — one vector
// generation where a separate scalar block for the key used to be.
struct FirstBatch {
  alignas(64) uint8_t ks[kChaCha20Batch4Bytes];

  FirstBatch(const Key256& key, const Nonce96& nonce) {
    ChaCha20Blocks4(key, nonce, 0, ks);
  }

  // mac = Poly1305(otk, aad || pad16 || ct || pad16 || len(aad) ||
  // len(ct)), computed incrementally over the aad and ciphertext in place —
  // the padded concatenation never exists as a buffer.
  Tag128 Tag(const uint8_t* aad, size_t aad_len, const uint8_t* ciphertext,
             size_t ct_len) const {
    std::array<uint8_t, 32> otk;
    std::memcpy(otk.data(), ks, otk.size());
    static constexpr uint8_t kPad[16] = {0};
    Poly1305 mac(otk);
    mac.Update(aad, aad_len);
    if (aad_len % 16 != 0) mac.Update(kPad, 16 - aad_len % 16);
    mac.Update(ciphertext, ct_len);
    if (ct_len % 16 != 0) mac.Update(kPad, 16 - ct_len % 16);
    uint8_t lens[16];
    uint64_t vals[2] = {aad_len, ct_len};
    for (int v = 0; v < 2; ++v) {
      for (int i = 0; i < 8; ++i) {
        lens[8 * v + i] = static_cast<uint8_t>(vals[v] >> (8 * i));
      }
    }
    mac.Update(lens, 16);
    return mac.Finalize();
  }
};

}  // namespace

void AeadSealInto(const Key256& key, const Nonce96& nonce, const uint8_t* aad,
                  size_t aad_len, const uint8_t* plaintext,
                  size_t plaintext_len, Bytes* out) {
  out->resize(plaintext_len + 16);
  if (plaintext_len > 0) std::memcpy(out->data(), plaintext, plaintext_len);
  const FirstBatch batch(key, nonce);
  ChaCha20XorAfterBlock0(key, nonce, batch.ks, out->data(), plaintext_len);
  Tag128 tag = batch.Tag(aad, aad_len, out->data(), plaintext_len);
  std::memcpy(out->data() + plaintext_len, tag.data(), tag.size());
}

Status AeadOpenInto(const Key256& key, const Nonce96& nonce,
                    const uint8_t* aad, size_t aad_len, const uint8_t* sealed,
                    size_t sealed_len, Bytes* out) {
  if (sealed_len < 16) {
    return Status::Corruption("AEAD message shorter than tag");
  }
  size_t ct_len = sealed_len - 16;
  // The tag runs over the ciphertext region of `sealed` directly (no
  // intermediate copy) and is verified before anything is decrypted.
  const FirstBatch batch(key, nonce);
  Tag128 expected = batch.Tag(aad, aad_len, sealed, ct_len);
  if (!ConstantTimeEquals(expected.data(), sealed + ct_len, 16)) {
    return Status::Corruption("AEAD tag mismatch");
  }
  out->resize(ct_len);
  if (ct_len > 0) std::memcpy(out->data(), sealed, ct_len);
  ChaCha20XorAfterBlock0(key, nonce, batch.ks, out->data(), ct_len);
  return Status::OK();
}

Bytes AeadSeal(const Key256& key, const Nonce96& nonce, const Bytes& aad,
               const Bytes& plaintext) {
  Bytes out;
  AeadSealInto(key, nonce, aad.data(), aad.size(), plaintext.data(),
               plaintext.size(), &out);
  return out;
}

Result<Bytes> AeadOpen(const Key256& key, const Nonce96& nonce,
                       const Bytes& aad, const Bytes& sealed) {
  Bytes out;
  Status s = AeadOpenInto(key, nonce, aad.data(), aad.size(), sealed.data(),
                          sealed.size(), &out);
  if (!s.ok()) return s;
  return out;
}

Nonce96 NonceFromSequence(uint64_t channel_id, uint64_t seq) {
  uint32_t chan = static_cast<uint32_t>(channel_id) ^
                  static_cast<uint32_t>(channel_id >> 32);
  Nonce96 nonce;
  nonce[0] = static_cast<uint8_t>(chan);
  nonce[1] = static_cast<uint8_t>(chan >> 8);
  nonce[2] = static_cast<uint8_t>(chan >> 16);
  nonce[3] = static_cast<uint8_t>(chan >> 24);
  for (int i = 0; i < 8; ++i) {
    nonce[4 + i] = static_cast<uint8_t>(seq >> (8 * i));
  }
  return nonce;
}

}  // namespace edgelet::crypto
