//! Known answers for the Curve25519 layer, pinned byte for byte.
//!
//! Every value was produced by the bit-serial-reduction, fixed-window
//! implementation this crate had before its kernels were rewritten, so any
//! change to the field, scalar or curve arithmetic that alters an output
//! (not just a timing) fails here. The X25519 shared secrets run the
//! Montgomery ladder; the public values and every Ed25519 output run the
//! fixed-base comb.

use sanctorum_crypto::ed25519::{Keypair, PublicKey, Signature};
use sanctorum_crypto::sha3::to_hex;
use sanctorum_crypto::x25519;

fn ed25519_seeds() -> [[u8; 32]; 4] {
    [
        [0u8; 32],
        [1u8; 32],
        [0x5a; 32],
        core::array::from_fn(|i| i as u8 * 7 + 3),
    ]
}

const MESSAGES: [&[u8]; 3] = [b"", b"sanctorum attestation report", &[0xA5u8; 200]];

const PUBLIC_KEYS: [&str; 4] = [
    "43eeb17f0bab10dd51ab70983c25200a1742d31b3b7b54c38c34d7b827b26eed",
    "817ced3c2846a792139b359149a1bbba4cdc3f26136f093aa3dcc9dd7b41e117",
    "edb6e5710909cf3158270bd481f720ea0270d53b81ebeef463ac588c7c8c5e17",
    "65d880e168c87a1a836d2a7ab4e2d4c2c7ef3901b23b4b04d39793b657fbd9ac",
];

/// `SIGNATURES[seed][message]`, 64 bytes as R ‖ s.
const SIGNATURES: [[&str; 3]; 4] = [
    [
        "daa540873fbcddde897e40b1c8e91d29c03d6ccd352da484d202ef823d400775ed0617f7a703fd47b0aa407f469025c78ae64a0c38eb2c835d1a91097d857000",
        "a10120553458f44eeba5cc1ffa19f019d1ea750e73f6ce47de51a5a09e368aa1824968d6c8c617f932794c1a16de11f357bb7359e0d63ecbb4d35d286bf52d06",
        "efde29e3a5550469c1aaf3dde550bb5b2dfef155c9076bfe3733592c1c967ffaf9f58903567ea7fb1a516ad708108235e59516e5a5eca272c622d58ac736e809",
    ],
    [
        "85d2b210c8c7808b67ad5832cdc768243032b06efd0047b41423a0b944ead8beaeadd1859459e8955c4a402163d644ba3b81ca8421ff5a39f951a6eaa5e7480a",
        "f1b93cf8c905a46ce4b46aecd110ddc8a2c8c20d26bd97ba280df995249cdf55d72437bfa0b3a57fb4456db4740ef2454c22367beb34f0820b31e5b4edccf404",
        "3cb66192ea91b8ef67b53a45e797d4bb855c04182ea994d070d70486a6d50fbb8e6f5e97c274c14dbaadf6542db2dfb1cf18714b912cf34565e49ee56bf6f401",
    ],
    [
        "a56de72ad29915c6479d66b88fb3249778b8cabf93e607d45a28b69e907db9cfe3a39a5f3560aad306521e1184d275ddecbf41cadcbc05a51e51dd54cc581c04",
        "10184e23a0520e6ac787b87c83a7d72cd2208cb0389ca15678eec805e0c308a14c26ac722afc11b514403ce0f89b5531c8202cac274519bae5e2688da67b5206",
        "d6fb69bca965348203ddc60d9c38d2e136788aa6346de4911dcc89787ff9f85c1db73a154bd58cfe634740534bff76d53cabb5b93a779e4f8079bbd6e1794b09",
    ],
    [
        "9f45bd95323e68cbac8dac721a295c0df0f44063a2d5529dc3dd09bf0d92730200ef80230bf99a6e354278a5e5b07431797235a6e2c1642e4ff7f2ac6ea1e808",
        "7eadec52aae83fca398e1895971c0a696abc58b9f4743e064592a0bd0cdd2a56de6b66ec05515ce0540f53ed59402a8c2ce75496ab497f20052811861aeb180e",
        "7e5aec261fffc68b0074808843a0f6d79965213713b7630b222920a0434b2ebf58d055cf4c3e2f328bc512e3f10170a5a51c591f356b54984627a68eaf01c503",
    ],
];

fn x25519_secrets() -> [[u8; 32]; 4] {
    [
        [0u8; 32],
        [0xff; 32],
        [0x11; 32],
        core::array::from_fn(|i| (i as u8).wrapping_mul(29).wrapping_add(1)),
    ]
}

const X25519_PUBLIC: [&str; 4] = [
    "2fe57da347cd62431528daac5fbb290730fff684afc4cfc2ed90995f58cb3b74",
    "847c0d2c375234f365e660955187a3735a0f7613d1609d3a6a4d8c53aeaa5a22",
    "7b4e909bbe7ffe44c465a220037d608ee35897d31ef972f07f74892cb0f73f13",
    "9efe3175f570cef66028adc8ab6e7bcc5f217238a09dcb2179cc0c22bab66d2d",
];

/// `(i, j, shared_secret(secret_i, public_j))` for every `i < j`.
const X25519_SHARED: [(usize, usize, &str); 6] = [
    (
        0,
        1,
        "f12f59031bae093b8575957f3e10cc799c437778e5d6cf4ea04542135c3dcd11",
    ),
    (
        0,
        2,
        "6ffd4d51f874c5da9126d9c8badf01970aa000741b9fc68025eba5cd557b1a07",
    ),
    (
        0,
        3,
        "0d3a5ad051c3402c19b9a142d6aa7687caa5e4f0074993097be7efed40c0b70e",
    ),
    (
        1,
        2,
        "f6b4289e68cd5f7a00bc09aa4369247c32794aafd45131bdaf2cf56ace8cd420",
    ),
    (
        1,
        3,
        "1e6e208a0c405ff2baf85d142eaf6ef69cce4df9c437cadcec6b3a4a8dc3255a",
    ),
    (
        2,
        3,
        "b1c6ba745fcce0e4b160d83bc4e2cc8b60c3ca9f6e56812cc164a80faf109162",
    ),
];

#[test]
fn ed25519_public_keys_and_signatures_are_pinned() {
    for (i, seed) in ed25519_seeds().iter().enumerate() {
        let kp = Keypair::from_seed(*seed);
        assert_eq!(
            to_hex(&kp.public().to_bytes()),
            PUBLIC_KEYS[i],
            "public key {i}"
        );
        for (j, message) in MESSAGES.iter().enumerate() {
            let sig = kp.sign(message);
            assert_eq!(
                to_hex(&sig.to_bytes()),
                SIGNATURES[i][j],
                "signature {i}/{j}"
            );
            assert!(kp.public().verify(message, &sig));
        }
    }
}

#[test]
fn pinned_signatures_verify_singly_and_in_one_batch() {
    let keys: Vec<PublicKey> = ed25519_seeds()
        .iter()
        .map(|s| *Keypair::from_seed(*s).public())
        .collect();
    let sigs: Vec<Signature> = SIGNATURES
        .iter()
        .flatten()
        .map(|hex| {
            let bytes: [u8; 64] = core::array::from_fn(|k| {
                u8::from_str_radix(&hex[2 * k..2 * k + 2], 16).expect("hex")
            });
            Signature::from_bytes(&bytes)
        })
        .collect();
    let items: Vec<(&PublicKey, &[u8], &Signature)> = sigs
        .iter()
        .enumerate()
        .map(|(n, sig)| (&keys[n / 3], MESSAGES[n % 3], sig))
        .collect();
    assert!(items.iter().all(|(k, m, s)| k.verify(m, s)));
    assert!(sanctorum_crypto::ed25519::verify_batch(&items));
    // Cross the keys: every item now fails, and so does the batch.
    let crossed: Vec<(&PublicKey, &[u8], &Signature)> = items
        .iter()
        .map(|(_, m, s)| (&keys[0], *m, *s))
        .skip(3)
        .collect();
    assert!(crossed.iter().all(|(k, m, s)| !k.verify(m, s)));
    assert!(!sanctorum_crypto::ed25519::verify_batch(&crossed));
}

#[test]
fn x25519_public_values_and_shared_secrets_are_pinned() {
    let secrets = x25519_secrets();
    for (i, secret) in secrets.iter().enumerate() {
        let public = x25519::public_key(secret);
        assert_eq!(to_hex(&public), X25519_PUBLIC[i], "public value {i}");
        // The comb route and the ladder route agree on the base point.
        assert_eq!(public, x25519::x25519(secret, &x25519::BASEPOINT));
    }
    for (i, j, expected) in X25519_SHARED {
        let shared = x25519::shared_secret(&secrets[i], &x25519::public_key(&secrets[j]));
        assert_eq!(to_hex(&shared), expected, "shared secret {i}/{j}");
        assert_eq!(
            shared,
            x25519::shared_secret(&secrets[j], &x25519::public_key(&secrets[i]))
        );
    }
}
