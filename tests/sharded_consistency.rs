//! The headline soundness property (DESIGN.md invariant 3): for random
//! ERC20 workloads, executing through N parallel shards + delta merge is
//! indistinguishable from a serial execution — the paper's
//! concurrent-revisions consistency.

use cosplit::analysis::signature::WeakReads;
use cosplit::chain::address::Address;
use cosplit::chain::network::{ChainConfig, Network};
use cosplit::chain::tx::Transaction;
use cosplit::scilla;
use proptest::prelude::*;
use scilla::state::StateStore;
use scilla::value::Value;

const SHARDED: &[&str] =
    &["Mint", "Burn", "Transfer", "TransferFrom", "IncreaseAllowance", "DecreaseAllowance"];

fn contract() -> Address {
    Address::from_index(1_000_000)
}

fn owner() -> Address {
    Address::from_index(999_999)
}

fn setup(num_shards: u32, users: u64) -> Network {
    let mut net = Network::new(ChainConfig::evaluation(num_shards, true));
    net.fund_account(owner(), u128::MAX / 8);
    for i in 0..users {
        net.fund_account(Address::from_index(i), 1_000_000_000);
    }
    let src = scilla::corpus::get("FungibleToken").unwrap().source;
    let params = vec![
        ("contract_owner".to_string(), owner().to_value()),
        ("name".to_string(), Value::Str("P".into())),
        ("symbol".to_string(), Value::Str("P".into())),
        ("init_supply".to_string(), Value::Uint(128, 0)),
    ];
    net.deploy(contract(), src, params, Some((SHARDED, WeakReads::AcceptAll))).unwrap();
    net
}

/// One workload step: (actor, action). Amounts are small enough to always
/// succeed against the seeded balances, so the final state is
/// order-independent and must match exactly across shard counts.
#[derive(Debug, Clone)]
enum Step {
    Transfer { from: u64, to: u64, amount: u128 },
    Mint { to: u64, amount: u128 },
    IncreaseAllowance { from: u64, spender: u64, amount: u128 },
    Burn { from: u64, amount: u128 },
}

fn step(users: u64) -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..users, 0..users, 1u128..5).prop_map(|(from, to, amount)| Step::Transfer {
            from,
            to,
            amount
        }),
        (0..users, 1u128..50).prop_map(|(to, amount)| Step::Mint { to, amount }),
        (0..users, 0..users, 1u128..20).prop_map(|(from, spender, amount)| {
            Step::IncreaseAllowance { from, spender, amount }
        }),
        (0..users, 1u128..3).prop_map(|(from, amount)| Step::Burn { from, amount }),
    ]
}

fn run(num_shards: u32, users: u64, steps: &[Step]) -> Network {
    let mut net = setup(num_shards, users);
    // Seed generous balances so every step succeeds.
    let mut pool: Vec<Transaction> = (0..users)
        .map(|i| {
            Transaction::call(
                i + 1,
                owner(),
                i + 1,
                contract(),
                "Mint",
                vec![
                    ("to".into(), Address::from_index(i).to_value()),
                    ("amount".into(), Value::Uint(128, 1_000_000)),
                ],
            )
        })
        .collect();
    while !pool.is_empty() {
        net.run_epoch(&mut pool);
    }

    let mut id = 10_000;
    let mut nonces = vec![0u64; users as usize];
    let mut owner_nonce = users;
    let mut pool: Vec<Transaction> = steps
        .iter()
        .filter_map(|s| {
            id += 1;
            match s {
                Step::Transfer { from, to, amount } if from != to => {
                    nonces[*from as usize] += 1;
                    Some(Transaction::call(
                        id,
                        Address::from_index(*from),
                        nonces[*from as usize],
                        contract(),
                        "Transfer",
                        vec![
                            ("to".into(), Address::from_index(*to).to_value()),
                            ("amount".into(), Value::Uint(128, *amount)),
                        ],
                    ))
                }
                Step::Transfer { .. } => None, // self transfers tested elsewhere
                Step::Mint { to, amount } => {
                    owner_nonce += 1;
                    Some(Transaction::call(
                        id,
                        owner(),
                        owner_nonce,
                        contract(),
                        "Mint",
                        vec![
                            ("to".into(), Address::from_index(*to).to_value()),
                            ("amount".into(), Value::Uint(128, *amount)),
                        ],
                    ))
                }
                Step::IncreaseAllowance { from, spender, amount } => {
                    nonces[*from as usize] += 1;
                    Some(Transaction::call(
                        id,
                        Address::from_index(*from),
                        nonces[*from as usize],
                        contract(),
                        "IncreaseAllowance",
                        vec![
                            ("spender".into(), Address::from_index(*spender).to_value()),
                            ("amount".into(), Value::Uint(128, *amount)),
                        ],
                    ))
                }
                Step::Burn { from, amount } => {
                    nonces[*from as usize] += 1;
                    Some(Transaction::call(
                        id,
                        Address::from_index(*from),
                        nonces[*from as usize],
                        contract(),
                        "Burn",
                        vec![("amount".into(), Value::Uint(128, *amount))],
                    ))
                }
            }
        })
        .collect();
    let mut guard = 0;
    while !pool.is_empty() {
        let r = net.run_epoch(&mut pool);
        assert_eq!(r.failed, 0, "workload steps are always-succeeding by construction");
        guard += 1;
        assert!(guard < 100, "did not converge");
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_state_matches_serial_state(
        steps in prop::collection::vec(step(12), 1..60),
        shards in 2u32..6,
    ) {
        let users = 12;
        let serial = run(1, users, &steps);
        let sharded = run(shards, users, &steps);

        let read = |net: &Network, field: &str| net.storage_of(&contract()).unwrap().get(field.into(), &[]);
        prop_assert_eq!(read(&serial, "total_supply"), read(&sharded, "total_supply"));
        prop_assert_eq!(read(&serial, "balances"), read(&sharded, "balances"));
        prop_assert_eq!(read(&serial, "allowances"), read(&sharded, "allowances"));
    }
}

/// Threaded shards ≡ serial shards: the per-shard threads `execute_shards`
/// spawns must produce exactly what running each shard's packet alone on
/// the calling thread produces — same receipts, same wire delta — over an
/// ownership-, a commutativity- and a DS-heavy workload.
#[test]
fn threaded_shards_match_serial_shards() {
    use cosplit::chain::executor::execute_batch;
    use cosplit::workloads::runner::prepare;
    use cosplit::workloads::scenarios::{build, Kind};

    for kind in [Kind::FtTransfer, Kind::NftMint, Kind::IpfsRegister] {
        let scenario = build(kind, 40, 400, 17);
        let net = prepare(&scenario, 3, true);
        let mut pool = scenario.load.clone();
        let packets = net.form_packets(&mut pool);
        assert!(
            packets.shard_batches.iter().any(|p| !p.is_empty()),
            "{}: no shard received work",
            kind.label()
        );
        let threaded = net.execute_shards(packets.shard_batches.clone());
        for (s, packet) in packets.shard_batches.iter().enumerate() {
            let serial =
                execute_batch(&net.shard_executor_config(s as u32), net.state(), packet.clone());
            assert_eq!(serial.receipts, threaded[s].receipts, "{} shard {s}", kind.label());
            assert_eq!(
                serial.delta.to_wire(),
                threaded[s].delta.to_wire(),
                "{} shard {s}",
                kind.label()
            );
        }
    }
}
