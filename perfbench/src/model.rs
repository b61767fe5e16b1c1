//! The independent model: what the contract's fields must hold after the
//! generated stream, computed in plain Rust from the transactions alone.
//! Nothing here calls the interpreter, the executor or the delta algebra, so
//! a bug in any of them shows as a mismatch against `Network::storage_of`.

use chain::network::Network;
use chain::tx::{Transaction, TxKind};
use scilla::value::Value;
use std::collections::{BTreeMap, HashMap};
use workloads::scenarios::{contract_addr, Kind};

type Addr = [u8; 20];

/// Expected contract state for one transaction workload.
pub enum Model {
    /// FungibleToken: balance = minted + received - sent; supply = minted.
    Ft {
        balances: HashMap<Addr, u128>,
        supply: u128,
    },
    /// NonfungibleToken: owner of every minted id, tokens per owner.
    Nft {
        owners: BTreeMap<u128, Addr>,
        counts: HashMap<Addr, u128>,
    },
    /// ProofIPFS: one registry entry per hash, items per registrant, and the
    /// attached amounts accumulated in `pot` and on the contract account.
    Ipfs {
        registry: HashMap<String, Addr>,
        counts: HashMap<Addr, u128>,
        pot: u128,
    },
}

fn call(tx: &Transaction) -> (&str, &[(String, Value)], u128) {
    match &tx.kind {
        TxKind::Call {
            transition,
            args,
            amount,
            ..
        } => (transition, args, *amount),
        TxKind::Payment { .. } => panic!("the benchmark's streams hold contract calls only"),
    }
}

fn arg<'a>(args: &'a [(String, Value)], name: &str) -> &'a Value {
    &args
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("argument '{name}'"))
        .1
}

fn addr_arg(args: &[(String, Value)], name: &str) -> Addr {
    arg(args, name).as_address().expect("address argument")
}

fn uint_arg(args: &[(String, Value)], name: &str) -> u128 {
    arg(args, name).as_uint().expect("unsigned argument")
}

impl Model {
    /// An empty model for `kind`; feed it the setup transactions and then
    /// every load transaction that enters the pool.
    pub fn new(kind: Kind) -> Model {
        match kind {
            Kind::FtTransfer => Model::Ft {
                balances: HashMap::new(),
                supply: 0,
            },
            Kind::NftMint => Model::Nft {
                owners: BTreeMap::new(),
                counts: HashMap::new(),
            },
            Kind::IpfsRegister => Model::Ipfs {
                registry: HashMap::new(),
                counts: HashMap::new(),
                pot: 0,
            },
            other => panic!("no model for {other:?}"),
        }
    }

    /// Applies one transaction, assuming it commits (the workloads are built
    /// so that none fails; a failure shows as a state or receipt mismatch).
    pub fn enter(&mut self, tx: &Transaction) {
        let (transition, args, amount) = call(tx);
        match (self, transition) {
            (Model::Ft { balances, supply }, "Mint") => {
                let n = uint_arg(args, "amount");
                *balances.entry(addr_arg(args, "to")).or_insert(0) += n;
                *supply += n;
            }
            (Model::Ft { balances, .. }, "Transfer") => {
                let n = uint_arg(args, "amount");
                *balances
                    .get_mut(&tx.sender.0)
                    .expect("sender was minted a balance") -= n;
                *balances.entry(addr_arg(args, "to")).or_insert(0) += n;
            }
            (Model::Nft { owners, counts }, "Mint") => {
                let to = addr_arg(args, "to");
                let fresh = owners.insert(uint_arg(args, "token_id"), to).is_none();
                assert!(fresh, "the stream mints every token id once");
                *counts.entry(to).or_insert(0) += 1;
            }
            (
                Model::Ipfs {
                    registry,
                    counts,
                    pot,
                },
                "Register",
            ) => {
                let hash = match arg(args, "ipfs_hash") {
                    Value::Str(s) => s.clone(),
                    other => panic!("ipfs_hash is a string, got {other:?}"),
                };
                let fresh = registry.insert(hash, tx.sender.0).is_none();
                assert!(fresh, "the stream registers every hash once");
                *counts.entry(tx.sender.0).or_insert(0) += 1;
                *pot += amount;
            }
            (_, other) => panic!("the model does not know transition '{other}'"),
        }
    }

    /// Makes the model wrong by one unit, to show that `verify` bites.
    pub fn perturb(&mut self) {
        match self {
            Model::Ft { balances, .. } => *balances.values_mut().next().expect("a balance") += 1,
            Model::Nft { counts, .. } => *counts.values_mut().next().expect("an owner") += 1,
            Model::Ipfs { pot, .. } => *pot += 1,
        }
    }

    /// Compares the model with the contract's storage on `net`.
    pub fn verify(&self, net: &Network) -> Result<(), String> {
        let storage = net
            .storage_of(&contract_addr())
            .ok_or("contract has no storage")?;
        let fields = storage.fields();
        let map = |name: &str| match fields.get(name) {
            Some(Value::Map(m)) => Ok(m),
            other => Err(format!("field '{name}' is not a map: {other:?}")),
        };
        let uint = |name: &str| {
            fields
                .get(name)
                .and_then(Value::as_uint)
                .ok_or(format!("field '{name}' is not a uint"))
        };
        let same_counts = |name: &str, want: &HashMap<Addr, u128>| -> Result<(), String> {
            let got = map(name)?;
            if got.len() != want.len() {
                return Err(format!(
                    "{name}: {} entries, model has {}",
                    got.len(),
                    want.len()
                ));
            }
            for (k, v) in got.iter() {
                let who = k
                    .as_address()
                    .ok_or(format!("{name}: key {k:?} is not an address"))?;
                if v.as_uint() != want.get(&who).copied() {
                    return Err(format!(
                        "{name}[{k:?}] = {v:?}, model has {:?}",
                        want.get(&who)
                    ));
                }
            }
            Ok(())
        };
        match self {
            Model::Ft { balances, supply } => {
                same_counts("balances", balances)?;
                if uint("total_supply")? != *supply {
                    return Err(format!("total_supply != {supply}"));
                }
            }
            Model::Nft { owners, counts } => {
                let got = map("token_owners")?;
                if got.len() != owners.len() {
                    return Err(format!("token_owners: {} != {}", got.len(), owners.len()));
                }
                for (k, v) in got.iter() {
                    let want = k.as_uint().and_then(|id| owners.get(&id));
                    if v.as_address().as_ref() != want {
                        return Err(format!("token_owners[{k:?}] = {v:?}, model has {want:?}"));
                    }
                }
                same_counts("owned_token_count", counts)?;
                if uint("total_tokens")? != owners.len() as u128 {
                    return Err(format!("total_tokens != {}", owners.len()));
                }
            }
            Model::Ipfs {
                registry,
                counts,
                pot,
            } => {
                let got = map("registry")?;
                let items = map("items")?;
                if got.len() != registry.len() {
                    return Err(format!("registry: {} != {}", got.len(), registry.len()));
                }
                for (k, v) in got.iter() {
                    let Value::Str(hash) = k else {
                        return Err(format!("registry key {k:?}"));
                    };
                    let want = registry.get(hash);
                    if v.as_address().as_ref() != want {
                        return Err(format!("registry[{hash}] = {v:?}, model has {want:?}"));
                    }
                    let listed = match items.get(v) {
                        Some(Value::Map(theirs)) => theirs.get(k).and_then(Value::as_bool),
                        _ => None,
                    };
                    if listed != Some(true) {
                        return Err(format!("items[{v:?}][{hash}] is not True"));
                    }
                }
                same_counts("item_count", counts)?;
                if uint("pot")? != *pot {
                    return Err(format!("pot != {pot}"));
                }
                let held = net.state().balance(&contract_addr());
                if held != *pot {
                    return Err(format!("contract account holds {held}, model has {pot}"));
                }
            }
        }
        Ok(())
    }
}
